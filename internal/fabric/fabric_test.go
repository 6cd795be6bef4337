package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gompix/internal/timing"
)

// at schedules fn at clock time t through Schedule, fn riding in the
// event's packet; after schedules it d from now.
func at(s *Scheduler, t time.Duration, fn func()) { s.Schedule(t, runFunc, Packet{Payload: fn}) }

func after(s *Scheduler, d time.Duration, fn func()) { at(s, s.clock.Now()+d, fn) }

func runFunc(_ time.Duration, pkt Packet) { pkt.Payload.(func())() }

func TestSchedulerManualOrdering(t *testing.T) {
	mc := timing.NewManualClock()
	s := NewScheduler(mc)
	var got []int
	at(s, 3*time.Microsecond, func() { got = append(got, 3) })
	at(s, 1*time.Microsecond, func() { got = append(got, 1) })
	at(s, 2*time.Microsecond, func() { got = append(got, 2) })
	if len(got) != 0 {
		t.Fatal("events fired before their time")
	}
	mc.Advance(1 * time.Microsecond)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after 1us got %v", got)
	}
	mc.Advance(5 * time.Microsecond)
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestSchedulerManualPastEventRunsImmediately(t *testing.T) {
	mc := timing.NewManualClock()
	s := NewScheduler(mc)
	mc.Advance(time.Millisecond)
	ran := false
	at(s, time.Microsecond, func() { ran = true })
	if !ran {
		t.Fatal("past event should run synchronously in manual mode")
	}
}

func TestSchedulerEqualTimeFIFO(t *testing.T) {
	mc := timing.NewManualClock()
	s := NewScheduler(mc)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		at(s, time.Microsecond, func() { got = append(got, i) })
	}
	mc.Advance(time.Microsecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events out of order: %v", got)
		}
	}
}

func TestSchedulerRealClock(t *testing.T) {
	s := NewScheduler(timing.NewRealClock())
	defer s.Stop()
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	wg.Add(3)
	add := func(v int) {
		mu.Lock()
		got = append(got, v)
		mu.Unlock()
		wg.Done()
	}
	after(s, 2*time.Millisecond, func() { add(2) })
	after(s, 500*time.Microsecond, func() { add(1) })
	after(s, 4*time.Millisecond, func() { add(3) })
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("events did not fire in time")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestSchedulerStopDropsEvents(t *testing.T) {
	s := NewScheduler(timing.NewRealClock())
	fired := make(chan struct{}, 1)
	after(s, time.Hour, func() { fired <- struct{}{} })
	if s.PendingEvents() != 1 {
		t.Fatalf("pending = %d", s.PendingEvents())
	}
	s.Stop()
	s.Stop() // idempotent
	if s.PendingEvents() != 0 {
		t.Fatal("Stop should drop pending events")
	}
	after(s, time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
		t.Fatal("event fired after Stop")
	case <-time.After(10 * time.Millisecond):
	}
}

func TestSchedulerNextEventTime(t *testing.T) {
	mc := timing.NewManualClock()
	s := NewScheduler(mc)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty scheduler should report no next event")
	}
	at(s, 7*time.Microsecond, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 7*time.Microsecond {
		t.Fatalf("next = %v %v", at, ok)
	}
}

func TestConfigDefaults(t *testing.T) {
	n := NewNetwork(timing.NewManualClock(), Config{})
	cfg := n.Config()
	if cfg.Latency == 0 || cfg.LocalLatency == 0 || cfg.BandwidthBytesPerSec == 0 || cfg.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestNetworkDelivery(t *testing.T) {
	mc := timing.NewManualClock()
	n := NewNetwork(mc, Config{Latency: 10 * time.Microsecond})
	var got []Packet
	a := n.Attach(0, func(p Packet) { t.Error("unexpected delivery to a") })
	b := n.Attach(1, func(p Packet) { got = append(got, p) })
	n.Transmit(Packet{Src: a, Dst: b, Payload: "hello", Bytes: 64}, mc.Now())
	if n.InFlight() != 1 {
		t.Fatalf("inflight = %d", n.InFlight())
	}
	mc.Advance(9 * time.Microsecond)
	if len(got) != 0 {
		t.Fatal("delivered too early")
	}
	mc.Advance(2 * time.Microsecond)
	if len(got) != 1 || got[0].Payload != "hello" {
		t.Fatalf("got %v", got)
	}
	if n.InFlight() != 0 || n.Delivered() != 1 {
		t.Fatalf("inflight=%d delivered=%d", n.InFlight(), n.Delivered())
	}
}

func TestNetworkLocalVsRemoteLatency(t *testing.T) {
	mc := timing.NewManualClock()
	n := NewNetwork(mc, Config{Latency: 10 * time.Microsecond, LocalLatency: time.Microsecond})
	var localAt, remoteAt time.Duration
	a := n.Attach(0, func(Packet) {})
	bLocal := n.Attach(0, func(Packet) { localAt = mc.Now() })
	cRemote := n.Attach(1, func(Packet) { remoteAt = mc.Now() })
	if !n.SameNode(a, bLocal) || n.SameNode(a, cRemote) {
		t.Fatal("node assignment broken")
	}
	if n.FlightTime(a, bLocal) != time.Microsecond || n.FlightTime(a, cRemote) != 10*time.Microsecond {
		t.Fatal("FlightTime wrong")
	}
	n.Transmit(Packet{Src: a, Dst: bLocal}, mc.Now())
	n.Transmit(Packet{Src: a, Dst: cRemote}, mc.Now())
	n.RunUntil(20 * time.Microsecond)
	if localAt != time.Microsecond {
		t.Fatalf("local delivery at %v, want 1us", localAt)
	}
	if remoteAt != 10*time.Microsecond {
		t.Fatalf("remote delivery at %v, want 10us", remoteAt)
	}
}

func TestSerializationTime(t *testing.T) {
	n := NewNetwork(timing.NewManualClock(), Config{BandwidthBytesPerSec: 1e9})
	if got := n.SerializationTime(1000); got != time.Microsecond {
		t.Fatalf("1000B at 1GB/s = %v, want 1us", got)
	}
	if n.SerializationTime(0) != 0 || n.SerializationTime(-5) != 0 {
		t.Fatal("non-positive sizes should serialize in 0 time")
	}
}

func TestNetworkFIFOPerLink(t *testing.T) {
	// Even with jitter, packets on one directed link arrive in order.
	mc := timing.NewManualClock()
	n := NewNetwork(mc, Config{Latency: 5 * time.Microsecond, Jitter: 20 * time.Microsecond, Seed: 99})
	var got []int
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(p Packet) { got = append(got, p.Payload.(int)) })
	const count = 50
	for i := 0; i < count; i++ {
		n.Transmit(Packet{Src: a, Dst: b, Payload: i}, mc.Now())
	}
	mc.Advance(time.Second)
	if len(got) != count {
		t.Fatalf("delivered %d, want %d", len(got), count)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

// Property: arbitrary interleavings of sends from two sources preserve
// per-source FIFO at the destination.
func TestNetworkFIFOProperty(t *testing.T) {
	f := func(seed int64, schedule []bool) bool {
		mc := timing.NewManualClock()
		n := NewNetwork(mc, Config{Latency: 3 * time.Microsecond, Jitter: 7 * time.Microsecond, Seed: seed})
		type tagged struct{ src, seq int }
		var got []tagged
		s0 := n.Attach(0, func(Packet) {})
		s1 := n.Attach(1, func(Packet) {})
		dst := n.Attach(2, func(p Packet) { got = append(got, p.Payload.(tagged)) })
		seqs := [2]int{}
		srcs := [2]EndpointID{s0, s1}
		for _, pick := range schedule {
			idx := 0
			if pick {
				idx = 1
			}
			n.Transmit(Packet{Src: srcs[idx], Dst: dst, Payload: tagged{idx, seqs[idx]}}, mc.Now())
			seqs[idx]++
			mc.Advance(time.Microsecond)
		}
		mc.Advance(time.Second)
		if len(got) != len(schedule) {
			return false
		}
		next := [2]int{}
		for _, g := range got {
			if g.seq != next[g.src] {
				return false
			}
			next[g.src]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransmitUnknownEndpointPanics(t *testing.T) {
	n := NewNetwork(timing.NewManualClock(), Config{})
	a := n.Attach(0, func(Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("transmit to unknown endpoint should panic")
		}
	}()
	n.Transmit(Packet{Src: a, Dst: 42}, 0)
}

func TestAttachNilDeliverPanics(t *testing.T) {
	n := NewNetwork(timing.NewManualClock(), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("nil deliver should panic")
		}
	}()
	n.Attach(0, nil)
}

// TestTransmitDeliverAllocs: a packet in flight costs no garbage. The
// event is a value in the scheduler's heap and the delivery handler was
// built at Attach, so once the heap has grown, Transmit plus its
// delivery allocates nothing.
func TestTransmitDeliverAllocs(t *testing.T) {
	mc := timing.NewManualClock()
	n := NewNetwork(mc, Config{})
	delivered := 0
	a := n.Attach(0, func(Packet) {})
	b := n.Attach(1, func(Packet) { delivered++ })
	// The clock stands far ahead of every transmission, so each arrival
	// is due when it is scheduled and fires inside Transmit; FIFO order
	// puts each one 1 ns behind the last, still in the past.
	mc.Set(time.Second)
	pkt := Packet{Src: a, Dst: b, Payload: "x", Bytes: 8}
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		if err := n.Transmit(pkt, 0); err != nil {
			t.Fatal(err)
		}
	})
	if delivered != runs+1 || n.InFlight() != 0 || n.Delivered() != runs+1 {
		t.Fatalf("delivered %d (counted %d, in flight %d), want %d", delivered, n.Delivered(), n.InFlight(), runs+1)
	}
	if allocs != 0 {
		t.Fatalf("Transmit plus its delivery allocates %v objects, want 0", allocs)
	}
}

// BenchmarkTransmitDeliver times one packet from Transmit to its
// delivery callback on the real clock, one packet in flight at a time:
// the flight time is 1 ns, so ns/op is what the fabric itself costs —
// scheduling, waking the dispatch goroutine, firing the handler.
func BenchmarkTransmitDeliver(b *testing.B) {
	n := NewNetwork(nil, Config{Latency: time.Nanosecond, LocalLatency: time.Nanosecond})
	defer n.Stop()
	var arrived atomic.Int64
	src := n.Attach(0, func(Packet) {})
	dst := n.Attach(1, func(Packet) { arrived.Add(1) })
	pkt := Packet{Src: src, Dst: dst, Bytes: 8}
	clock := n.Clock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := n.Transmit(pkt, clock.Now()); err != nil {
			b.Fatal(err)
		}
		for arrived.Load() < int64(i) {
			runtime.Gosched()
		}
	}
}

// TestNetworkConcurrentSenders: senders on several goroutines share the
// scheduler's heap and the network's atomic counters with the dispatch
// goroutine (real clock). Every packet arrives once, each directed link
// in order, and the counters settle at the totals.
func TestNetworkConcurrentSenders(t *testing.T) {
	const senders, perSender = 4, 500
	n := NewNetwork(nil, Config{Jitter: time.Microsecond})
	defer n.Stop()
	type tagged struct{ src, seq int }
	var mu sync.Mutex
	next := make([]int, senders)
	var bad atomic.Int64
	dst := n.Attach(0, func(p Packet) {
		g := p.Payload.(tagged)
		mu.Lock()
		if g.seq != next[g.src] {
			bad.Add(1)
		}
		next[g.src] = g.seq + 1
		mu.Unlock()
	})
	srcs := make([]EndpointID, senders)
	for i := range srcs {
		srcs[i] = n.Attach(1, func(Packet) {})
	}
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				if err := n.Transmit(Packet{Src: srcs[i], Dst: dst, Payload: tagged{i, seq}}, n.Clock().Now()); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for n.Delivered() < senders*perSender {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", n.Delivered(), senders*perSender)
		}
		runtime.Gosched()
	}
	if bad.Load() != 0 || n.InFlight() != 0 {
		t.Fatalf("%d packets out of order, %d still in flight", bad.Load(), n.InFlight())
	}
}
