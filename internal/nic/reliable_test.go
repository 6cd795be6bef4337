package nic

import (
	"errors"
	"fmt"
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
// lossy) manual-clock fabric and wraps both in the reliability layer.
func relPair(f fabric.FaultConfig, cfg RelConfig) (*timing.ManualClock, *Reliable, *Reliable) {
	mc, rels := relWorld(f, cfg, 0, 1)
	return mc, rels[0], rels[1]
}

// relWorld builds one endpoint per node given, wrapped in the
// reliability layer, over a manual-clock fabric; the endpoints carry
// its envelope around []byte payloads. Each endpoint is a rank of its
// own, numbered as its address. No transport watches the fabric: a
// permanent partition yields no verdict here.
func relWorld(f fabric.FaultConfig, cfg RelConfig, nodes ...int) (*timing.ManualClock, []*Reliable) {
	mc := timing.NewManualClock()
	net := fabric.NewNetwork(mc, fabric.Config{Latency: 2 * time.Microsecond, Faults: f})
	rankOf := func(ep fabric.EndpointID) int { return int(ep) }
	var rels []*Reliable
	for _, node := range nodes {
		ep := NewEndpoint(net, node)
		ep.SetCodec(RelCodec(ByteCodec{}))
		rels = append(rels, NewReliable(ep, ByteCodec{}, rankOf, cfg))
	}
	return mc, rels
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
		RelConfig{RTO: 20 * time.Microsecond},
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
		"a.rel.retransmits", "a.rel.backoff.rounds", "a.rel.frames.failed", "b.rel.dups.dropped", "b.rel.out_of_order",
	} {
		if got := d.Counter(name); got != 0 {
			t.Errorf("%s = %d on a clean fabric, want 0", name, got)
		}
	}
	if got := d.Counter("b.rel.acks.sent"); got == 0 {
		t.Error("acks.sent == 0: the protocol never acknowledged")
	}
}

func TestReliableBackoffDoublesToTheCapAndNeverGivesUp(t *testing.T) {
	// Permanent partition, and no transport to turn it into a verdict:
	// the frame is never acknowledged, the backoff doubles up to the cap
	// and stays there, and the layer keeps retransmitting — silence is
	// not death, so no CQE is ever posted.
	const rto, maxRTO = 10 * time.Microsecond, 40 * time.Microsecond
	mc, a, b := relPair(
		fabric.FaultConfig{Partitions: []fabric.Partition{{SrcNode: 0, DstNode: 1}}},
		RelConfig{RTO: rto, MaxRTO: maxRTO},
	)
	reg := meterPair(a, b)
	before := reg.Snapshot()
	if arm := armed(a, func() error { return a.PostSend(b.ID(), []byte("doomed"), 64, "tok") }); !arm {
		t.Fatal("first send must arm the retransmit flush")
	}
	var rounds []time.Duration // when each retransmission round ran
	for mc.Now() < 10*time.Millisecond {
		n := a.Stats().Retransmits
		churn(mc, 5*time.Microsecond, a, b)
		if a.Stats().Retransmits > n {
			rounds = append(rounds, mc.Now())
		}
		if cqes := pollCQ(a, 0); cqes != nil {
			t.Fatalf("CQEs %+v at %v: the layer gave up on a peer no verdict condemned", cqes, mc.Now())
		}
		if n := a.PendingTx(); n != 1 {
			t.Fatalf("PendingTx = %d at %v, want 1", n, mc.Now())
		}
	}
	// 10 ms at a 40 µs cap: a few hundred rounds, each re-sending the
	// one frame.
	if len(rounds) < 200 || a.Stats().Retransmits != uint64(len(rounds)) {
		t.Fatalf("%d retransmission rounds, %d retransmits in 10ms; want one frame per round, every %v", len(rounds), a.Stats().Retransmits, maxRTO)
	}
	if rounds[0] != rto {
		t.Errorf("first round at %v, want %v", rounds[0], rto)
	}
	for i, want := 1, 2*rto; i < len(rounds); i++ {
		if gap := rounds[i] - rounds[i-1]; gap != want {
			t.Fatalf("gap before round %d = %v, want %v (rounds %v...)", i, gap, want, rounds[:5])
		}
		want = min(2*want, maxRTO)
	}
	if st := a.Stats(); st.FramesFailed != 0 {
		t.Errorf("stats %+v: a frame failed without a verdict", st)
	}
	d := metrics.Diff(before, reg.Snapshot())
	if got := d.Counter("a.rel.retransmits"); got != a.Stats().Retransmits {
		t.Errorf("metric retransmits = %d, RelStats = %d", got, a.Stats().Retransmits)
	}
	if got := d.Counter("a.rel.backoff.rounds"); got != uint64(len(rounds)) {
		t.Errorf("metric backoff.rounds = %d, want %d", got, len(rounds))
	}
	if got := d.Counter("a.rel.frames.failed"); got != 0 {
		t.Errorf("metric frames.failed = %d, want 0", got)
	}
}

// TestReliableStalledPeerIsLateNotDead: a live peer that drives no
// progress for a while — a long compute phase, the stragglers of the
// paper's Fig. 1 — goes through many unanswered retransmission rounds,
// and its frame must still complete successfully, once, when it comes
// back. A layer that condemned it after a round budget failed the
// frame with ErrLinkDown though the peer had it all along.
func TestReliableStalledPeerIsLateNotDead(t *testing.T) {
	mc, a, b := relPair(fabric.FaultConfig{}, RelConfig{RTO: 10 * time.Microsecond, MaxRTO: 40 * time.Microsecond})
	if err := a.PostSend(b.ID(), []byte("slow"), 64, "tok"); err != nil {
		t.Fatal(err)
	}
	var cqes []CQE
	for step := 0; step < 200; step++ { // 1 ms in which b runs no progress
		mc.Advance(5 * time.Microsecond)
		a.Flush()
		cqes = append(cqes, pollCQ(a, 0)...)
	}
	var got []fabric.Packet
	for step := 0; step < 50; step++ {
		got = append(got, churn(mc, 5*time.Microsecond, a, b)...)
		cqes = append(cqes, pollCQ(a, 0)...)
	}
	if len(got) != 1 || string(got[0].Payload.([]byte)) != "slow" {
		t.Fatalf("b delivered %d frames (%v), want \"slow\" once", len(got), got)
	}
	if len(cqes) != 1 || cqes[0].Token != "tok" || cqes[0].Err != nil {
		t.Fatalf("a's CQEs = %+v, want tok once, Err nil (stats %+v)", cqes, a.Stats())
	}
}

// TestReliableVerdictFailsTheCondemnedRank: a PeerDown verdict of the
// wrapped link is the one thing that makes the layer give up on a
// peer. It forwards the verdict, then fails that rank's unacknowledged
// signaled frames, drops its inline ones, and settles later posts to it
// at once — while traffic to any other rank goes on untouched.
func TestReliableVerdictFailsTheCondemnedRank(t *testing.T) {
	mc, rels := relWorld(
		fabric.FaultConfig{Partitions: []fabric.Partition{{SrcNode: 0, DstNode: 1}}},
		RelConfig{RTO: 20 * time.Microsecond}, 0, 1, 2)
	a, b, c := rels[0], rels[1], rels[2]
	reg := meterPair(a, b)
	before := reg.Snapshot()
	a.PostSend(b.ID(), []byte("sig"), 64, "sig")
	a.PostSendInline(b.ID(), []byte("inl"), 64)
	a.PostSend(c.ID(), []byte("c1"), 64, "c1")
	dead := int(b.ID())
	a.link.(*Endpoint).ReportPeerDown(dead, errors.New("test verdict"))

	cqes := a.DrainCQ(make([]CQE, 0, 8))
	if len(cqes) != 2 {
		t.Fatalf("CQEs %+v, want the verdict, then the failed signaled frame", cqes)
	}
	if v, ok := cqes[0].Token.(PeerDown); !ok || v.Rank != dead || !errors.Is(cqes[0].Err, ErrLinkDown) {
		t.Fatalf("first CQE %+v, want PeerDown{%d} wrapping ErrLinkDown", cqes[0], dead)
	}
	if cqes[1].Token != "sig" || cqes[1].Err != ErrLinkDown {
		t.Fatalf("second CQE %+v, want sig with bare ErrLinkDown", cqes[1])
	}
	if n := a.PendingTx(); n != 1 {
		t.Fatalf("PendingTx = %d after the verdict, want 1 (c's frame)", n)
	}

	// Later posts to the condemned rank settle at once, arming nothing.
	if armed(a, func() error { return a.PostSend(b.ID(), []byte("late"), 64, "late") }) ||
		armed(a, func() error { return a.PostSendInline(b.ID(), []byte("late"), 64) }) {
		t.Fatal("a post to a condemned rank armed the flush")
	}
	if cqes := pollCQ(a, 0); len(cqes) != 1 || cqes[0].Token != "late" || cqes[0].Err != ErrLinkDown {
		t.Fatalf("late post CQEs = %+v, want late with ErrLinkDown", cqes)
	}
	a.SetArm(func() {})
	a.PostSend(c.ID(), []byte("c2"), 64, "c2")

	var atC []string
	var toks []any
	for step := 0; step < 100; step++ {
		mc.Advance(5 * time.Microsecond)
		for _, p := range pollRQ(c, 0) {
			atC = append(atC, string(p.Payload.([]byte)))
		}
		c.Flush()
		b.Flush()
		a.Flush()
		for _, cqe := range pollCQ(a, 0) {
			if cqe.Err != nil {
				t.Fatalf("CQE %+v after the verdict", cqe)
			}
			toks = append(toks, cqe.Token)
		}
	}
	if fmt.Sprint(atC) != "[c1 c2]" || fmt.Sprint(toks) != "[c1 c2]" {
		t.Fatalf("c received %v and a completed %v, want [c1 c2] both", atC, toks)
	}
	if n := a.PendingTx(); n != 0 {
		t.Fatalf("PendingTx = %d, want 0", n)
	}
	if _, idle := a.Flush(); !idle {
		t.Fatal("Flush not idle once only condemned frames were left")
	}
	st := a.Stats()
	if st.Retransmits != 0 || st.FramesFailed != 2 {
		t.Fatalf("stats %+v: want no retransmission (the inline frame was dropped) and 2 frames failed", st)
	}
	if got := metrics.Diff(before, reg.Snapshot()).Counter("a.rel.frames.failed"); got != 2 {
		t.Errorf("metric frames.failed = %d, want 2", got)
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
	mc, a, b := relPair(fabric.FaultConfig{DropProb: 0.25, Seed: 99}, RelConfig{RTO: 20 * time.Microsecond})
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
		RelConfig{RTO: 20 * time.Microsecond},
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
