package nic

import (
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/timing"
)

// meterPair wires both reliability layers of a relPair to a fresh
// enabled registry, so tests can assert protocol counter deltas via
// Snapshot/Diff alongside the legacy RelStats checks. Each layer's
// instruments land beside its endpoint's: "a.nic" → "a.rel".
func meterPair(a, b *Reliable) *metrics.Registry {
	reg := metrics.New()
	reg.Enable()
	a.UseMetrics(reg, "a.nic")
	b.UseMetrics(reg, "b.nic")
	return reg
}

// relPair builds two endpoints on different nodes over a (possibly
// lossy) manual-clock fabric and wraps both in the reliability layer;
// the endpoints carry its envelope around []byte payloads.
func relPair(f fabric.FaultConfig, cfg RelConfig) (*timing.ManualClock, *Reliable, *Reliable) {
	mc := timing.NewManualClock()
	net := fabric.NewNetwork(mc, fabric.Config{Latency: 2 * time.Microsecond, Faults: f})
	rel := func(node int) *Reliable {
		ep := NewEndpoint(net, node)
		ep.SetCodec(RelCodec(ByteCodec{}))
		return NewReliable(ep, ByteCodec{}, cfg)
	}
	return mc, rel(0), rel(1)
}

// armed reports whether post made r invoke the callback SetArm gave it.
func armed(r *Reliable, post func() error) bool {
	n := 0
	r.SetArm(func() { n++ })
	if err := post(); err != nil {
		panic(err)
	}
	return n > 0
}

// churn advances time and drives both sides' progress once.
func churn(mc *timing.ManualClock, step time.Duration, rels ...*Reliable) (got []fabric.Packet) {
	mc.Advance(step)
	for _, r := range rels {
		got = append(got, pollRQ(r, 0)...)
		r.Flush()
	}
	return got
}

func TestReliableInOrderExactlyOnceUnderLoss(t *testing.T) {
	// 30% loss in both directions (data and ACKs), 20% duplication: the
	// receiver must still see every payload exactly once, in order.
	mc, a, b := relPair(
		fabric.FaultConfig{DropProb: 0.3, DupProb: 0.2, Seed: 11},
		RelConfig{RTO: 20 * time.Microsecond, MaxRetries: 1000},
	)
	reg := meterPair(a, b)
	before := reg.Snapshot()
	const count = 200
	for i := 0; i < count; i++ {
		a.PostSendInline(b.ID(), num(i), 64)
	}
	var got []int
	for step := 0; step < 5000 && (len(got) < count || a.PendingTx() > 0); step++ {
		for _, p := range churn(mc, 10*time.Microsecond, b, a) {
			got = append(got, numOf(p))
		}
	}
	if len(got) != count {
		t.Fatalf("delivered %d of %d (stats %+v)", len(got), count, a.Stats())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: got %d (stats b=%+v)", i, v, b.Stats())
		}
	}
	if a.PendingTx() != 0 {
		t.Fatalf("outstanding = %d after full delivery", a.PendingTx())
	}
	if a.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions under 30% loss")
	}
	if b.Stats().DupsDropped == 0 {
		t.Fatal("expected duplicate suppression under 20% duplication")
	}

	// The metrics registry must tell the same story as RelStats.
	d := metrics.Diff(before, reg.Snapshot())
	if got := d.Counter("a.rel.retransmits"); got != a.Stats().Retransmits {
		t.Errorf("metric retransmits = %d, RelStats = %d", got, a.Stats().Retransmits)
	}
	if got := d.Counter("b.rel.dups.dropped"); got != b.Stats().DupsDropped {
		t.Errorf("metric dups.dropped = %d, RelStats = %d", got, b.Stats().DupsDropped)
	}
	if d.Counter("a.rel.retransmits") == 0 {
		t.Error("metric retransmits == 0 under 30% loss")
	}
	if d.Counter("b.rel.acks.sent") == 0 || d.Counter("a.rel.acks.received") == 0 {
		t.Errorf("ack counters empty: sent=%d received=%d",
			d.Counter("b.rel.acks.sent"), d.Counter("a.rel.acks.received"))
	}
	if got := d.Gauge("a.rel.outstanding"); got != 0 {
		t.Errorf("outstanding gauge = %d after full delivery", got)
	}
	if d.GaugeMax["a.rel.outstanding"] == 0 {
		t.Error("outstanding high-water mark never rose")
	}
}

func TestReliableAckCompletesTokensInOrder(t *testing.T) {
	mc, a, b := relPair(fabric.FaultConfig{}, RelConfig{})
	reg := meterPair(a, b)
	before := reg.Snapshot()
	for i := 0; i < 5; i++ {
		a.PostSend(b.ID(), num(i), 128, i)
	}
	var toks []int
	for step := 0; step < 100 && len(toks) < 5; step++ {
		churn(mc, 10*time.Microsecond, b, a)
		for _, cqe := range pollCQ(a, 0) {
			if cqe.Err != nil {
				t.Fatalf("unexpected CQE error on a clean fabric: %v", cqe.Err)
			}
			toks = append(toks, cqe.Token.(int))
		}
	}
	if len(toks) != 5 {
		t.Fatalf("completed %d of 5 sends", len(toks))
	}
	for i, v := range toks {
		if v != i {
			t.Fatalf("CQEs out of order: %v", toks)
		}
	}

	// Clean-fabric control: no recovery machinery may fire.
	d := metrics.Diff(before, reg.Snapshot())
	for _, name := range []string{
		"a.rel.retransmits", "a.rel.backoff.rounds", "a.rel.links.down",
		"a.rel.frames.failed", "b.rel.dups.dropped", "b.rel.out_of_order",
	} {
		if got := d.Counter(name); got != 0 {
			t.Errorf("%s = %d on a clean fabric, want 0", name, got)
		}
	}
	if got := d.Counter("b.rel.acks.sent"); got == 0 {
		t.Error("acks.sent == 0: the protocol never acknowledged")
	}
}

func TestReliableExponentialBackoffAndLinkDown(t *testing.T) {
	// Permanent partition: the frame is never acknowledged, backoff
	// doubles up to the cap, and after MaxRetries rounds the link dies
	// and the token fails with ErrLinkDown.
	mc, a, b := relPair(
		fabric.FaultConfig{Partitions: []fabric.Partition{{SrcNode: 0, DstNode: 1}}},
		RelConfig{RTO: 10 * time.Microsecond, MaxRTO: 40 * time.Microsecond, MaxRetries: 4},
	)
	reg := meterPair(a, b)
	before := reg.Snapshot()
	if arm := armed(a, func() error { return a.PostSend(b.ID(), []byte("doomed"), 64, "tok") }); !arm {
		t.Fatal("first send must arm the retransmit flush")
	}
	var failed []CQE
	deadline := 10 * time.Millisecond
	for mc.Now() < deadline && len(failed) == 0 {
		churn(mc, 5*time.Microsecond, a, b)
		failed = append(failed, pollCQ(a, 0)...)
	}
	if len(failed) != 1 || failed[0].Err != ErrLinkDown || failed[0].Token != "tok" {
		t.Fatalf("failed CQEs = %+v, want one ErrLinkDown for tok", failed)
	}
	if a.Stats().LinksDown != 1 {
		t.Fatal("link should be marked down")
	}
	st := a.Stats()
	// 4 allowed rounds: RTO 10, 20, 40, 40 (capped) — then death.
	if st.Retransmits != 4 || st.LinksDown != 1 || st.FramesFailed != 1 {
		t.Fatalf("stats %+v, want 4 retransmits, 1 link down, 1 frame failed", st)
	}
	d := metrics.Diff(before, reg.Snapshot())
	if got := d.Counter("a.rel.retransmits"); got != 4 {
		t.Errorf("metric retransmits = %d, want 4", got)
	}
	if got := d.Counter("a.rel.backoff.rounds"); got != 4 {
		t.Errorf("metric backoff.rounds = %d, want 4", got)
	}
	if got := d.Counter("a.rel.links.down"); got != 1 {
		t.Errorf("metric links.down = %d, want 1", got)
	}
	if got := d.Counter("a.rel.frames.failed"); got != 1 {
		t.Errorf("metric frames.failed = %d, want 1", got)
	}
	// Sends on a dead link fail immediately.
	if arm := armed(a, func() error { return a.PostSend(b.ID(), []byte("late"), 64, "tok2") }); arm {
		t.Fatal("send on a dead link must not arm the flush")
	}
	cqes := pollCQ(a, 0)
	if len(cqes) != 1 || cqes[0].Err != ErrLinkDown {
		t.Fatalf("late send CQEs = %+v", cqes)
	}
	if a.PendingTx() != 0 {
		t.Fatalf("outstanding = %d on a dead link", a.PendingTx())
	}
}

func TestReliablePollDisarmsWhenIdle(t *testing.T) {
	mc, a, b := relPair(fabric.FaultConfig{}, RelConfig{})
	if arm := armed(a, func() error { return a.PostSendInline(b.ID(), []byte("x"), 32) }); !arm {
		t.Fatal("idle->busy transition must request arming")
	}
	if arm := armed(a, func() error { return a.PostSendInline(b.ID(), []byte("y"), 32) }); arm {
		t.Fatal("second send while busy must not re-arm")
	}
	for step := 0; step < 100 && a.PendingTx() > 0; step++ {
		churn(mc, 10*time.Microsecond, b, a)
	}
	if a.PendingTx() != 0 {
		t.Fatal("sends never acknowledged on a clean fabric")
	}
	if _, idle := a.Flush(); !idle {
		t.Fatal("Flush should report idle once everything is acked")
	}
	// The next send must arm a fresh flush.
	if arm := armed(a, func() error { return a.PostSendInline(b.ID(), []byte("z"), 32) }); !arm {
		t.Fatal("send after idle must re-arm")
	}
}

func TestReliableBidirectionalTraffic(t *testing.T) {
	mc, a, b := relPair(fabric.FaultConfig{DropProb: 0.25, Seed: 99}, RelConfig{RTO: 20 * time.Microsecond, MaxRetries: 1000})
	const count = 50
	for i := 0; i < count; i++ {
		a.PostSendInline(b.ID(), num(1000+i), 32)
		b.PostSendInline(a.ID(), num(2000+i), 32)
	}
	var atB, atA []int
	for step := 0; step < 3000 && (len(atB) < count || len(atA) < count); step++ {
		mc.Advance(10 * time.Microsecond)
		for _, p := range pollRQ(b, 0) {
			atB = append(atB, numOf(p))
		}
		for _, p := range pollRQ(a, 0) {
			atA = append(atA, numOf(p))
		}
		a.Flush()
		b.Flush()
	}
	if len(atB) != count || len(atA) != count {
		t.Fatalf("delivered a->b %d/%d, b->a %d/%d", len(atB), count, len(atA), count)
	}
	for i := range atB {
		if atB[i] != 1000+i || atA[i] != 2000+i {
			t.Fatalf("misordered: atB[%d]=%d atA[%d]=%d", i, atB[i], i, atA[i])
		}
	}
}

// TestReliableRetransmissionCopiesItsOwnBytes: an inline post hands the
// caller's buffer back at once, so a retransmission must send the bytes
// the layer encoded at post, not the buffer as the caller rewrote it.
// The partition swallows the first transmission: only a retransmission
// can deliver the frame.
func TestReliableRetransmissionCopiesItsOwnBytes(t *testing.T) {
	mc, a, b := relPair(
		fabric.FaultConfig{Partitions: []fabric.Partition{{SrcNode: 0, DstNode: 1, Until: 5 * time.Microsecond}}},
		RelConfig{RTO: 20 * time.Microsecond, MaxRetries: 100},
	)
	buf := []byte("original")
	if err := a.PostSendInline(b.ID(), buf, 64); err != nil {
		t.Fatal(err)
	}
	copy(buf, "REWRITE!")
	var got []fabric.Packet
	for step := 0; step < 100 && len(got) == 0; step++ {
		got = churn(mc, 10*time.Microsecond, b, a)
	}
	if a.Stats().Retransmits == 0 {
		t.Fatal("the first transmission was delivered: the partition did not swallow it")
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1 (stats %+v)", len(got), a.Stats())
	}
	if p := got[0].Payload.([]byte); string(p) != "original" {
		t.Fatalf("the retransmission delivered %q, the caller's rewritten buffer, not the %q it posted", p, "original")
	}
}
