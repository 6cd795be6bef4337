// Package transporttest is the conformance suite every transport
// backend must pass: a backend-neutral battery over the nic.Link
// contract (ordered delivery, interleaved frame sizes, signaled
// completions, concurrent send/recv, work-counter balance, a link's
// send to itself) plus capability-gated checks for the failure
// semantics real multiprocess transports add (graceful goodbye versus
// abrupt death, PeerDown verdict ordering), and the reader of a peer's
// memory a transport may hand out.
//
// A backend instantiates the suite by building a Factory and calling
// Run from one of its tests:
//
//	func TestConformance(t *testing.T) {
//		transporttest.Run(t, transporttest.Factory{
//			Name: "tcp",
//			Caps: transporttest.Caps{PolledRecv: true, Failures: true, Goodbye: true},
//			New:  newTCPWorld,
//		})
//	}
//
// The suite drives progress only through World.Progress — it never
// sleeps waiting for background goroutines — so it exercises exactly
// the explicit-progress path the MPI layer uses.
package transporttest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/transport"
)

// Caps declares which optional behaviors a backend implements; gated
// subtests are skipped when the capability is absent, and the others
// read them for what the backend's links must answer.
type Caps struct {
	// PolledRecv: the links find their input by being polled (PollRecv
	// reads sockets or rings), so each holds one unit on its work
	// counter while open, and SetArm's callback fires when its pending
	// output goes from none to some. Without it a link is fed by its
	// fabric and has no output to flush.
	PolledRecv bool
	// Failures: abrupt peer termination surfaces a PeerDown verdict
	// CQE (token nic.PeerDown, Err nic.ErrLinkDown) on surviving
	// ranks' links, ordered before any failed-frame CQEs.
	Failures bool
	// Goodbye: graceful transport close announces departure, so
	// surviving ranks see fail-fast posts and no verdict.
	Goodbye bool
	// Acked: the links are the reliability layer (nic.Reliable), which
	// holds every frame until its peer acknowledges it and owes a Flush
	// meanwhile: it arms SetArm's callback on the first frame of every
	// burst although it is fed by its fabric (no PolledRecv), which
	// LinkContract counts as a spurious arm.
	Acked bool
}

// World is one instantiated test topology: ranks = len(Links), one
// link per rank, all mutually addressable via Link.ID().
type World struct {
	// Links holds rank r's link at index r: its VCI 0.
	Links []nic.Link
	// Transports holds the transport rank r's link came from at index r
	// (an in-process transport serves every rank).
	Transports []transport.Transport
	// Work holds the counter Links[r] was bound to (Bind) before the
	// backend started any goroutine that may touch it.
	Work []*WorkCount
	// Progress advances the backend one step on the caller's thread:
	// flush coalesced output, poll sockets, or let simulated time
	// move. Called in a tight loop; it must not block indefinitely.
	Progress func()
	// Kill terminates rank r's transport abruptly — the SIGKILL
	// shape, no goodbye. Required when Caps.Failures.
	Kill func(rank int)
	// Goodbye closes rank r's transport gracefully. Required when
	// Caps.Goodbye.
	Goodbye func(rank int)
	// Close tears the world down. The suite also registers it via
	// t.Cleanup, so it must be idempotent.
	Close func()
}

// WorkCount is the nic.WorkCounter the suite binds links to: a sum
// that watcher goroutines and the driving thread may both adjust.
type WorkCount struct{ n atomic.Int64 }

// Add adjusts the sum (nic.WorkCounter).
func (c *WorkCount) Add(delta int) { c.n.Add(int64(delta)) }

// Load returns the sum.
func (c *WorkCount) Load() int64 { return c.n.Load() }

// Bind appends l as the next rank's link, bound to a counter of its
// own.
func (w *World) Bind(l nic.Link) {
	c := new(WorkCount)
	l.BindWork(c)
	w.Links = append(w.Links, l)
	w.Work = append(w.Work, c)
}

// Factory builds fresh Worlds for the suite.
type Factory struct {
	Name string
	Caps Caps
	// New builds a world with the given rank count. Worlds are never
	// reused across subtests.
	New func(t *testing.T, ranks int) *World
}

// Run executes the conformance battery against the factory.
func Run(t *testing.T, f Factory) {
	t.Run("OrderedDelivery", func(t *testing.T) { testOrderedDelivery(t, f) })
	t.Run("InterleavedSizes", func(t *testing.T) { testInterleavedSizes(t, f) })
	t.Run("SignaledCompletions", func(t *testing.T) { testSignaledCompletions(t, f) })
	t.Run("ConcurrentSendRecv", func(t *testing.T) { testConcurrentSendRecv(t, f) })
	t.Run("WorkCounter", func(t *testing.T) { testWorkCounter(t, f) })
	t.Run("LinkContract", func(t *testing.T) {
		if f.Caps.Acked {
			t.Skipf("%s: arms a flush on every burst without polled receive", f.Name)
		}
		testLinkContract(t, f)
	})
	t.Run("SelfSend", func(t *testing.T) { testSelfSend(t, f) })
	t.Run("PayloadOwnership", func(t *testing.T) { testPayloadOwnership(t, f) })
	t.Run("Addressing", func(t *testing.T) { testAddressing(t, f) })
	t.Run("PeerReader", func(t *testing.T) { testPeerReader(t, f) })
	t.Run("GracefulClose", func(t *testing.T) {
		if !f.Caps.Goodbye {
			t.Skipf("%s: no goodbye capability", f.Name)
		}
		testGracefulClose(t, f)
	})
	t.Run("PeerDownVerdict", func(t *testing.T) {
		if !f.Caps.Failures {
			t.Skipf("%s: no failure capability", f.Name)
		}
		testPeerDownVerdict(t, f)
	})
}

func (w *World) setup(t *testing.T) {
	t.Helper()
	t.Cleanup(w.Close)
	if w.Progress == nil {
		w.Progress = func() {}
	}
}

// wait spins Progress until cond holds or the deadline passes.
func wait(t *testing.T, w *World, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		w.Progress()
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// seqMsg builds a private payload of the given size carrying seq in its
// first four bytes and a seq-derived fill after, so reordering and
// corruption are both detectable.
func seqMsg(seq uint32, size int) []byte {
	if size < 4 {
		size = 4
	}
	b := make([]byte, size)
	binary.LittleEndian.PutUint32(b, seq)
	for i := 4; i < size; i++ {
		b[i] = byte(seq + uint32(i)*31)
	}
	return b
}

func checkSeqMsg(p fabric.Packet, wantSeq uint32, wantSize int) error {
	b, ok := p.Payload.([]byte)
	if !ok {
		return fmt.Errorf("payload is %T, want []byte", p.Payload)
	}
	if wantSize < 4 {
		wantSize = 4
	}
	if len(b) != wantSize {
		return fmt.Errorf("seq %d: payload %d bytes, want %d", wantSeq, len(b), wantSize)
	}
	if got := binary.LittleEndian.Uint32(b); got != wantSeq {
		return fmt.Errorf("sequence %d arrived where %d was expected", got, wantSeq)
	}
	for i := 4; i < len(b); i++ {
		if b[i] != byte(wantSeq+uint32(i)*31) {
			return fmt.Errorf("seq %d: corrupt byte at offset %d", wantSeq, i)
		}
	}
	return nil
}

// drainAll empties dst's receive queue into got.
func drainAll(l nic.Link, got []fabric.Packet, scratch []fabric.Packet) []fabric.Packet {
	for l.QueuedRQ() > 0 {
		for _, p := range l.DrainRQ(scratch[:0]) {
			got = append(got, p)
		}
	}
	return got
}

// testOrderedDelivery: frames from one sender arrive exactly once, in
// post order, with src/dst intact.
func testOrderedDelivery(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	const count = 200
	for i := 0; i < count; i++ {
		if err := src.PostSendInline(dst.ID(), seqMsg(uint32(i), 8), 8); err != nil {
			t.Fatal(err)
		}
	}
	wait(t, w, "delivery", func() bool { return dst.QueuedRQ() >= count })
	got := drainAll(dst, nil, make([]fabric.Packet, 64))
	if len(got) != count {
		t.Fatalf("received %d frames, want %d", len(got), count)
	}
	for i, p := range got {
		if p.Src != src.ID() || p.Dst != dst.ID() {
			t.Fatalf("frame %d: src=%d dst=%d, want %d→%d", i, p.Src, p.Dst, src.ID(), dst.ID())
		}
		if err := checkSeqMsg(p, uint32(i), 8); err != nil {
			t.Fatal(err)
		}
	}
}

// testInterleavedSizes: small frames interleaved with frames large
// enough to cross any internal coalescing/segmentation boundary keep
// both order and content.
func testInterleavedSizes(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	rng := rand.New(rand.NewSource(42))
	const count = 60
	sizes := make([]int, count)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = 4 + rng.Intn(28) // small
		} else {
			sizes[i] = 24<<10 + rng.Intn(72<<10) // crosses 32K/64K boundaries
		}
		if err := src.PostSendInline(dst.ID(), seqMsg(uint32(i), sizes[i]), sizes[i]); err != nil {
			t.Fatal(err)
		}
	}
	wait(t, w, "interleaved delivery", func() bool { return dst.QueuedRQ() >= count })
	got := drainAll(dst, nil, make([]fabric.Packet, 64))
	if len(got) != count {
		t.Fatalf("received %d frames, want %d", len(got), count)
	}
	for i, p := range got {
		if err := checkSeqMsg(p, uint32(i), sizes[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// testSignaledCompletions: every signaled post completes exactly once
// with its token and no error.
func testSignaledCompletions(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	const count = 50
	for i := 0; i < count; i++ {
		if err := src.PostSend(dst.ID(), seqMsg(uint32(i), 16), 16, i); err != nil {
			t.Fatal(err)
		}
	}
	var cqes []nic.CQE
	wait(t, w, "completions", func() bool {
		cqes = append(cqes, src.DrainCQ(make([]nic.CQE, 0, 16))...)
		return len(cqes) >= count
	})
	seen := make(map[int]bool, count)
	for _, c := range cqes {
		if c.Err != nil {
			t.Fatalf("completion %v failed: %v", c.Token, c.Err)
		}
		i, ok := c.Token.(int)
		if !ok || i < 0 || i >= count || seen[i] {
			t.Fatalf("bad or duplicate completion token %v", c.Token)
		}
		seen[i] = true
	}
	wait(t, w, "delivery", func() bool { return dst.QueuedRQ() >= count })
}

// testConcurrentSendRecv: both directions stream simultaneously from
// separate goroutines while the main thread progresses and drains —
// the shape -race needs to catch queue and flush races.
func testConcurrentSendRecv(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	const count = 300
	errc := make(chan error, 2)
	for dir := 0; dir < 2; dir++ {
		src, dst := w.Links[dir], w.Links[1-dir]
		go func() {
			for i := 0; i < count; i++ {
				msg := seqMsg(uint32(i), 8+(i%5)*97)
				if err := src.PostSendInline(dst.ID(), msg, len(msg)); err != nil {
					errc <- fmt.Errorf("dir %d→%d seq %d: %w", src.ID(), dst.ID(), i, err)
					return
				}
			}
			errc <- nil
		}()
	}
	var got [2][]fabric.Packet
	scratch := make([]fabric.Packet, 64)
	wait(t, w, "bidirectional delivery", func() bool {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		default:
		}
		for dir := 0; dir < 2; dir++ {
			got[dir] = drainAll(w.Links[1-dir], got[dir], scratch)
		}
		return len(got[0]) >= count && len(got[1]) >= count
	})
	for dir := 0; dir < 2; dir++ {
		if len(got[dir]) != count {
			t.Fatalf("direction %d: received %d frames, want %d", dir, len(got[dir]), count)
		}
		for i, p := range got[dir] {
			if err := checkSeqMsg(p, uint32(i), 8+(i%5)*97); err != nil {
				t.Fatalf("direction %d: %v", dir, err)
			}
		}
	}
}

// testWorkCounter: the counter a link is bound to is what lets a
// progress pass skip its poll, so it may never read zero while a poll
// could find something — queued completions and arrivals count one
// each, and a link that finds its input by looking (Caps.PolledRecv)
// keeps one unit there for as long as it is open — and nothing may be
// left on it once everything was drained and the link closed.
func testWorkCounter(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	floor := func(when string) {
		t.Helper()
		polled := int64(0)
		if f.Caps.PolledRecv {
			polled = 1
		}
		for r, l := range w.Links {
			queued := int64(l.QueuedCQ() + l.QueuedRQ())
			if got := w.Work[r].Load(); got < polled+queued {
				t.Fatalf("%s: rank %d's counter reads %d with %d entries queued and %d polling unit", when, r, got, queued, polled)
			}
		}
	}
	floor("idle")
	const count = 20
	for i := 0; i < count; i++ {
		if err := src.PostSend(dst.ID(), seqMsg(uint32(i), 8), 8, i); err != nil {
			t.Fatal(err)
		}
	}
	wait(t, w, "delivery and completions", func() bool {
		return dst.QueuedRQ() >= count && src.QueuedCQ() >= count
	})
	floor("queued") // every producer is done: the two reads cannot tear
	drainAll(dst, nil, make([]fabric.Packet, 64))
	for src.QueuedCQ() > 0 {
		src.DrainCQ(make([]nic.CQE, 0, 16))
	}
	floor("drained")
	for _, l := range w.Links {
		l.Close()
	}
	w.Close()
	for r := range w.Links {
		if got := w.Work[r].Load(); got != 0 {
			t.Errorf("rank %d's counter reads %d after drain and close, want 0", r, got)
		}
	}
}

// testLinkContract: what the progress methods of nic.Link answer. An
// idle link has nothing pending, a flush that moves nothing and reports
// it idle, a poll that finds nothing and a park that is safe — on a
// fresh link and after a burst was delivered and drained alike. SetArm's
// callback fires once per burst on a link that holds output back
// (Caps.PolledRecv) — the frames are larger than a small ring, so some
// of the first one always waits for a flush — and never on one that does
// not. UseMetrics without a registry is a no-op.
func testLinkContract(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	var arms atomic.Int64
	src.SetArm(func() { arms.Add(1) })
	for _, l := range w.Links {
		l.UseMetrics(nil, "conformance")
	}
	idle := func(when string) {
		t.Helper()
		for r, l := range w.Links {
			if n := l.PendingTx(); n != 0 {
				t.Fatalf("%s: rank %d: PendingTx = %d, want 0", when, r, n)
			}
			if made, idle := l.Flush(); made || !idle {
				t.Fatalf("%s: rank %d: Flush = (%v, %v), want (false, true)", when, r, made, idle)
			}
			if l.PollRecv() {
				t.Fatalf("%s: rank %d: PollRecv found input nobody sent", when, r)
			}
			if !l.Parking() {
				t.Fatalf("%s: rank %d: Parking refused a sleep with nothing in flight", when, r)
			}
		}
	}
	idle("fresh")
	const count, size = 16, 24 << 10
	want := int64(0)
	for round := 1; round <= 2; round++ {
		for i := 0; i < count; i++ {
			if err := src.PostSendInline(dst.ID(), seqMsg(uint32(i), size), size); err != nil {
				t.Fatal(err)
			}
		}
		if f.Caps.PolledRecv {
			want++
		}
		if got := arms.Load(); got != want {
			t.Fatalf("burst %d: SetArm's callback fired %d times in all, want %d", round, got, want)
		}
		var got []fabric.Packet
		scratch := make([]fabric.Packet, 64)
		wait(t, w, "burst delivery", func() bool {
			got = drainAll(dst, got, scratch)
			return len(got) >= count && src.PendingTx() == 0
		})
		for i, p := range got {
			if err := checkSeqMsg(p, uint32(i), size); err != nil {
				t.Fatalf("burst %d: %v", round, err)
			}
		}
		idle(fmt.Sprintf("after burst %d", round))
	}
	if got := arms.Load(); got != want {
		t.Fatalf("SetArm's callback fired %d times in all, want %d: it fired on an idle link", got, want)
	}
}

// testSelfSend: a link's posts to its own address arrive on its own
// receive queue, in post order, and nowhere else — inline, signaled,
// and signaled at a size a byte transport would send from the poster's
// memory (nic.BulkMin) — with one completion per signaled post; the
// work counter covers what is queued; and a closed link refuses the
// post like any other. No carrier reaches a rank's own endpoint: the
// byte transports loop the frame back through their codec.
func testSelfSend(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	l := w.Links[0]
	sizes := []int{8, 64, nic.BulkMin + 100}
	if err := l.PostSendInline(l.ID(), seqMsg(0, sizes[0]), sizes[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sizes); i++ {
		if err := l.PostSend(l.ID(), seqMsg(uint32(i), sizes[i]), sizes[i], i); err != nil {
			t.Fatal(err)
		}
	}
	wait(t, w, "self delivery and completions", func() bool {
		return l.QueuedRQ() >= len(sizes) && l.QueuedCQ() >= len(sizes)-1
	})
	if got, queued := w.Work[0].Load(), int64(l.QueuedRQ()+l.QueuedCQ()); got < queued {
		t.Fatalf("counter reads %d with %d entries queued", got, queued)
	}
	for i, c := range l.DrainCQ(make([]nic.CQE, 0, 8)) {
		if c.Err != nil || c.Token != i+1 {
			t.Fatalf("completion %d: %+v", i, c)
		}
	}
	got := drainAll(l, nil, make([]fabric.Packet, 8))
	if len(got) != len(sizes) {
		t.Fatalf("received %d frames, want %d", len(got), len(sizes))
	}
	for i, p := range got {
		if p.Src != l.ID() || p.Dst != l.ID() {
			t.Fatalf("frame %d: src=%d dst=%d, want %d→%d", i, p.Src, p.Dst, l.ID(), l.ID())
		}
		if err := checkSeqMsg(p, uint32(i), sizes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.Links[1].QueuedRQ(); n != 0 {
		t.Fatalf("%d frames of a self-send reached the other rank", n)
	}
	// The simulated endpoint has nothing of its own to close; its
	// fabric, closed with the world, refuses instead.
	l.Close()
	w.Close()
	if err := l.PostSendInline(l.ID(), seqMsg(9, 8), 8); err == nil {
		t.Fatal("self-send posted on a closed link")
	}
}

// testPayloadOwnership: a post's payload is the caller's again when the
// link says so — an inline one once PostSendInline returns, a signaled
// one at its CQE — so rewriting it then never shows at the receiver.
// The signaled payload is large enough (nic.BulkMin and more) for a
// byte transport to send it from where it is until the CQE.
func testPayloadOwnership(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	sizes := []int{8, nic.BulkMin + 100}
	inline, signaled := seqMsg(0, sizes[0]), seqMsg(1, sizes[1])
	if err := src.PostSendInline(dst.ID(), inline, sizes[0]); err != nil {
		t.Fatal(err)
	}
	clear(inline)
	if err := src.PostSend(dst.ID(), signaled, sizes[1], 1); err != nil {
		t.Fatal(err)
	}
	wait(t, w, "the signaled post's completion", func() bool { return len(src.DrainCQ(make([]nic.CQE, 0, 1))) > 0 })
	clear(signaled)
	var got []fabric.Packet
	wait(t, w, "delivery", func() bool {
		got = drainAll(dst, got, make([]fabric.Packet, 8))
		return len(got) >= len(sizes)
	})
	for i, p := range got {
		if err := checkSeqMsg(p, uint32(i), sizes[i]); err != nil {
			t.Fatalf("the payload arrived as the poster rewrote it, not as it was sent: %v", err)
		}
	}
}

// testAddressing: a transport answers the addressing questions for
// every link it handed out — EndpointOf(r, v) is the link's address and
// RankOfEndpoint maps that back to r — the factory's VCI 0 and VCIs
// added once traffic could flow alike. VCI 2's link is closed before
// VCI 3 is added: the MPI layer never reuses a VCI index, so a stream
// created after a StreamFree gets the next one, and its address must
// resolve all the same.
func testAddressing(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	type added struct {
		rank, vci int
		link      nic.Link
	}
	var links []added
	for r, l := range w.Links {
		links = append(links, added{r, 0, l})
		for vci := 1; vci <= 3; vci++ {
			l, err := w.Transports[r].AddLink(r, vci)
			if err != nil {
				t.Fatalf("AddLink(%d, %d): %v", r, vci, err)
			}
			if vci == 2 {
				l.Close()
			}
			links = append(links, added{r, vci, l})
		}
	}
	for _, a := range links {
		tr := w.Transports[a.rank]
		if got := tr.EndpointOf(a.rank, a.vci); got != a.link.ID() {
			t.Errorf("EndpointOf(%d, %d) = %d, want the link's address %d", a.rank, a.vci, got, a.link.ID())
		}
		if got := tr.RankOfEndpoint(a.link.ID()); got != a.rank {
			t.Errorf("RankOfEndpoint(%d) = %d, want %d (vci %d)", a.link.ID(), got, a.rank, a.vci)
		}
	}
}

// testGracefulClose: a goodbye'd peer produces fail-fast posts and no
// verdict CQE on the survivor.
func testGracefulClose(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	if err := src.PostSendInline(dst.ID(), seqMsg(0, 8), 8); err != nil {
		t.Fatal(err)
	}
	wait(t, w, "warmup delivery", func() bool { return dst.QueuedRQ() >= 1 })
	dstID := dst.ID()
	w.Goodbye(1)
	wait(t, w, "fail-fast after goodbye", func() bool {
		return src.PostSendInline(dstID, seqMsg(1, 8), 8) != nil
	})
	// Drain any settled pre-goodbye completions; no verdict may appear.
	for _, c := range src.DrainCQ(make([]nic.CQE, 0, 8)) {
		if _, isVerdict := c.Token.(nic.PeerDown); isVerdict {
			t.Fatalf("graceful departure surfaced a verdict CQE: %+v", c)
		}
	}
}

// testPeerDownVerdict: abrupt peer death surfaces exactly one PeerDown
// verdict CQE, ordered before any failed-frame completions, and posts
// after the verdict fail fast.
func testPeerDownVerdict(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src, dst := w.Links[0], w.Links[1]
	if err := src.PostSendInline(dst.ID(), seqMsg(0, 8), 8); err != nil {
		t.Fatal(err)
	}
	wait(t, w, "warmup delivery", func() bool { return dst.QueuedRQ() >= 1 })
	dstID := dst.ID()
	w.Kill(1)
	// Race some signaled traffic against the death so failed-frame
	// CQEs exist to order against; posts may already fail fast if the
	// verdict landed first, which is equally conformant.
	for i := 0; i < 3; i++ {
		if err := src.PostSend(dstID, seqMsg(uint32(i), 8), 8, i); err != nil {
			break
		}
	}
	var cqes []nic.CQE
	wait(t, w, "verdict", func() bool {
		cqes = append(cqes, src.DrainCQ(make([]nic.CQE, 0, 8))...)
		for _, c := range cqes {
			if _, ok := c.Token.(nic.PeerDown); ok {
				return true
			}
		}
		return false
	})
	verdicts := 0
	for i, c := range cqes {
		if pd, ok := c.Token.(nic.PeerDown); ok {
			verdicts++
			if pd.Rank != 1 {
				t.Fatalf("verdict names rank %d, want 1", pd.Rank)
			}
			if !errors.Is(c.Err, nic.ErrLinkDown) {
				t.Fatalf("verdict error = %v, want ErrLinkDown", c.Err)
			}
			continue
		}
		// A frame CQE before the first verdict must be a success
		// (settled before the loss); failures may only follow it.
		if c.Err != nil && verdicts == 0 {
			t.Fatalf("failed frame CQE %d (%+v) surfaced before the verdict", i, c)
		}
	}
	if verdicts != 1 {
		t.Fatalf("saw %d verdict CQEs, want exactly 1", verdicts)
	}
	wait(t, w, "fail-fast after verdict", func() bool {
		return src.PostSendInline(dstID, seqMsg(9, 8), 8) != nil
	})
}

// testPeerReader: a transport may hand out a reader of a peer's memory
// (nil is always allowed, and a rank never gets one of itself); a
// reader it hands out copies exactly the bytes at an address. Every
// rank of a test world lives in this process, so a buffer here is the
// peer's memory too.
func testPeerReader(t *testing.T, f Factory) {
	w := f.New(t, 2)
	w.setup(t)
	src := make([]byte, 256<<10)
	for i := range src {
		src[i] = byte(i*13 + 1)
	}
	addr := uint64(uintptr(unsafe.Pointer(&src[0])))
	for r := range w.Links {
		tr := w.Transports[r]
		if tr.PeerReader(r) != nil {
			t.Errorf("rank %d has a reader of itself", r)
		}
		rd := tr.PeerReader(1 - r)
		if rd == nil {
			continue
		}
		dst := make([]byte, len(src))
		for got := 0; got < len(dst); {
			k, err := rd.ReadPeer(dst[got:], addr+uint64(got))
			if err != nil || k == 0 {
				t.Fatalf("rank %d reading rank %d: %d bytes, %v", r, 1-r, k, err)
			}
			got += k
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("rank %d's reader of rank %d copied other bytes", r, 1-r)
		}
	}
}
