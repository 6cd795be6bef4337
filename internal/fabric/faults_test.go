package fabric

import (
	"testing"
	"time"

	"gompix/internal/timing"
)

func lossyNet(mc *timing.ManualClock, f FaultConfig) *Network {
	return NewNetwork(mc, Config{Latency: 10 * time.Microsecond, Faults: f})
}

func TestFaultDropProbability(t *testing.T) {
	mc := timing.NewManualClock()
	n := lossyNet(mc, FaultConfig{DropProb: 0.5, Seed: 7})
	delivered := 0
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(Packet) { delivered++ })
	const count = 1000
	for i := 0; i < count; i++ {
		n.Transmit(Packet{Src: a, Dst: b, Payload: i, Bytes: 8}, mc.Now())
	}
	mc.Advance(time.Second)
	fs := n.FaultStats()
	if fs.Dropped == 0 {
		t.Fatal("no packets dropped at 50% drop probability")
	}
	if delivered+int(fs.Dropped) != count {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, fs.Dropped, count)
	}
	// Binomial(1000, 0.5): anything outside [350, 650] means the RNG is
	// not being consulted per packet.
	if delivered < 350 || delivered > 650 {
		t.Fatalf("delivered %d of %d at p=0.5", delivered, count)
	}
}

func TestFaultDeterministicSeed(t *testing.T) {
	run := func() (uint64, uint64) {
		mc := timing.NewManualClock()
		n := lossyNet(mc, FaultConfig{DropProb: 0.3, DupProb: 0.2, Seed: 42})
		a := n.Attach(0, func(Packet) {})
		b := n.Attach(1, func(Packet) {})
		for i := 0; i < 500; i++ {
			n.Transmit(Packet{Src: a, Dst: b, Payload: i, Bytes: 8}, mc.Now())
		}
		mc.Advance(time.Second)
		fs := n.FaultStats()
		return fs.Dropped, fs.Duplicated
	}
	d1, dup1 := run()
	d2, dup2 := run()
	if d1 != d2 || dup1 != dup2 {
		t.Fatalf("same seed diverged: run1=(%d,%d) run2=(%d,%d)", d1, dup1, d2, dup2)
	}
	if d1 == 0 || dup1 == 0 {
		t.Fatalf("faults not injected: dropped=%d duplicated=%d", d1, dup1)
	}
}

func TestFaultDuplicationDeliversTwiceInOrder(t *testing.T) {
	mc := timing.NewManualClock()
	n := lossyNet(mc, FaultConfig{DupProb: 1.0, Seed: 3})
	var got []int
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(p Packet) { got = append(got, p.Payload.(int)) })
	n.Transmit(Packet{Src: a, Dst: b, Payload: 1, Bytes: 8}, mc.Now())
	n.Transmit(Packet{Src: a, Dst: b, Payload: 2, Bytes: 8}, mc.Now())
	mc.Advance(time.Second)
	want := []int{1, 1, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v (duplicate must ride directly behind the original)", got, want)
		}
	}
	if n.FaultStats().Duplicated != 2 {
		t.Fatalf("duplicated = %d, want 2", n.FaultStats().Duplicated)
	}
}

func TestFaultDelaySpike(t *testing.T) {
	mc := timing.NewManualClock()
	n := lossyNet(mc, FaultConfig{DelayProb: 1.0, Delay: 100 * time.Microsecond, Seed: 5})
	var at time.Duration
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(Packet) { at = mc.Now() })
	n.Transmit(Packet{Src: a, Dst: b, Bytes: 8}, mc.Now())
	n.RunUntil(time.Second)
	if want := 110 * time.Microsecond; at != want {
		t.Fatalf("spiked packet arrived at %v, want %v", at, want)
	}
	if n.FaultStats().Delayed != 1 {
		t.Fatalf("delayed = %d, want 1", n.FaultStats().Delayed)
	}
}

func TestFaultScheduledPartition(t *testing.T) {
	mc := timing.NewManualClock()
	n := lossyNet(mc, FaultConfig{
		Partitions: []Partition{{SrcNode: 0, DstNode: 1, From: 100 * time.Microsecond, Until: 200 * time.Microsecond}},
	})
	delivered := 0
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(Packet) { delivered++ })
	send := func() { n.Transmit(Packet{Src: a, Dst: b, Bytes: 8}, mc.Now()) }
	send() // t=0: before the window
	mc.Set(150 * time.Microsecond)
	send() // inside the window: dropped
	mc.Set(250 * time.Microsecond)
	send() // healed
	mc.Advance(time.Second)
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	if n.FaultStats().PartitionDropped != 1 {
		t.Fatalf("partition drops = %d, want 1", n.FaultStats().PartitionDropped)
	}
}

func TestFaultPartitionDirections(t *testing.T) {
	forever := Partition{SrcNode: 0, DstNode: 1}
	if !forever.matches(0, 1, time.Hour) {
		t.Fatal("Until=0 must mean a permanent partition")
	}
	if forever.matches(1, 0, 0) {
		t.Fatal("unidirectional partition matched the reverse direction")
	}
	bidi := Partition{SrcNode: 0, DstNode: 1, Bidirectional: true}
	if !bidi.matches(1, 0, 0) {
		t.Fatal("bidirectional partition must match the reverse direction")
	}
	wild := Partition{SrcNode: -1, DstNode: 2}
	if !wild.matches(9, 2, 0) || wild.matches(9, 3, 0) {
		t.Fatal("wildcard source partition misbehaved")
	}
}

// TestTransmitReportsPermanentCut checks that Transmit reports ErrCut for
// every packet between two nodes a permanent partition cuts, in either
// direction: dropped on the cut way, delivered on the way back, whose
// replies the cut swallows. A partition that heals reports nothing.
func TestTransmitReportsPermanentCut(t *testing.T) {
	mc := timing.NewManualClock()
	n := lossyNet(mc, FaultConfig{Partitions: []Partition{
		{SrcNode: 1, DstNode: 0},
		{SrcNode: 2, DstNode: 0, Until: time.Hour},
	}})
	got := make([]int, 3)
	a := n.Attach(0, func(Packet) { got[0]++ })
	b := n.Attach(1, func(Packet) { got[1]++ })
	c := n.Attach(2, func(Packet) { got[2]++ })
	send := func(src, dst EndpointID) error {
		return n.Transmit(Packet{Src: src, Dst: dst, Bytes: 8}, mc.Now())
	}
	if err := send(b, a); err != ErrCut {
		t.Fatalf("post on the cut way: err = %v, want ErrCut", err)
	}
	if err := send(a, b); err != ErrCut {
		t.Fatalf("post whose replies are cut: err = %v, want ErrCut", err)
	}
	if err := send(c, a); err != nil {
		t.Fatalf("post across a partition that heals: err = %v, want nil", err)
	}
	if err := send(a, c); err != nil {
		t.Fatalf("post back across a partition that heals: err = %v, want nil", err)
	}
	if err := send(b, c); err != nil {
		t.Fatalf("post between uncut nodes: err = %v, want nil", err)
	}
	mc.Advance(time.Second)
	if want := []int{0, 1, 2}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("delivered per node %v, want %v", got, want)
	}
	if d := n.FaultStats().PartitionDropped; d != 2 {
		t.Fatalf("partition drops = %d, want 2", d)
	}
}

func TestFaultPerLinkOverride(t *testing.T) {
	mc := timing.NewManualClock()
	var toB, toC int
	n := NewNetwork(mc, Config{
		Latency: 10 * time.Microsecond,
		Faults: FaultConfig{
			DropProb: 0, // clean by default
			Links:    map[Link]LinkFaults{{Src: 0, Dst: 1}: {DropProb: 1.0}},
		},
	})
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(Packet) { toB++ })
	c := n.Attach(2, func(Packet) { toC++ })
	for i := 0; i < 10; i++ {
		n.Transmit(Packet{Src: a, Dst: b, Bytes: 8}, mc.Now())
		n.Transmit(Packet{Src: a, Dst: c, Bytes: 8}, mc.Now())
	}
	mc.Advance(time.Second)
	if toB != 0 {
		t.Fatalf("a->b has DropProb 1.0 but %d packets arrived", toB)
	}
	if toC != 10 {
		t.Fatalf("a->c is clean but only %d of 10 arrived", toC)
	}
}

func TestRandomSeedRequestsEntropy(t *testing.T) {
	fixed := (Config{}).withDefaults()
	if fixed.Seed != 0x6d70697870726f67 {
		t.Fatalf("Seed=0 should map to the documented fixed default, got %#x", fixed.Seed)
	}
	r1 := (Config{RandomSeed: true}).withDefaults()
	if r1.Seed == fixed.Seed || r1.Seed == 0 {
		t.Fatalf("RandomSeed produced the fixed default (%#x)", r1.Seed)
	}
	// An explicit seed wins over RandomSeed.
	exp := (Config{Seed: 1234, RandomSeed: true}).withDefaults()
	if exp.Seed != 1234 {
		t.Fatalf("explicit seed overridden: %d", exp.Seed)
	}
	// The fault stream gets its own derived seed by default.
	if fixed.Faults.Seed != fixed.Seed+1 {
		t.Fatalf("fault seed = %d, want %d", fixed.Faults.Seed, fixed.Seed+1)
	}
}

func TestStopEdgeCases(t *testing.T) {
	mc := timing.NewManualClock()
	n := NewNetwork(mc, Config{Latency: 10 * time.Microsecond})
	delivered := 0
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(Packet) { delivered++ })
	if err := n.Transmit(Packet{Src: a, Dst: b, Bytes: 8}, mc.Now()); err != nil {
		t.Fatalf("transmit before stop: %v", err)
	}
	// Stop with the packet still in flight: it is dropped, not
	// delivered, and nothing panics.
	n.Stop()
	n.Stop() // double-Stop is a no-op
	mc.Advance(time.Second)
	if delivered != 0 {
		t.Fatalf("in-flight packet delivered after Stop")
	}
	if err := n.Transmit(Packet{Src: a, Dst: b, Bytes: 8}, mc.Now()); err != ErrStopped {
		t.Fatalf("post-Stop Transmit error = %v, want ErrStopped", err)
	}
	if n.Scheduler().PendingEvents() != 0 {
		t.Fatalf("scheduler still has %d events after Stop", n.Scheduler().PendingEvents())
	}
}

func TestSchedulerDoubleStop(t *testing.T) {
	s := NewScheduler(timing.NewRealClock())
	s.Stop()
	s.Stop() // must not panic or deadlock
	at(s, time.Millisecond, func() { t.Error("event fired after Stop") })
	time.Sleep(5 * time.Millisecond)
}
