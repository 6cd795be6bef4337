package nic

import (
	"errors"
	"sync"
	"time"

	"gompix/internal/fabric"
)

// This file implements a reliability protocol as a Link wrapped around
// another, for use over a lossy fabric (fabric.FaultConfig): per-link
// sequence numbers, cumulative ACKs, in-order delivery with duplicate
// suppression, and a retransmission queue with exponential backoff. The
// retransmit timer is not a goroutine: it runs in Flush, which the
// owner drives as the MPIX Async thing SetArm's callback starts, so
// recovery latency is governed by the paper's explicit progress model —
// a user-space MPI subsystem in the sense of §2.7.
//
// Semantics offered to the netmod above:
//
//   - PostSendInline: fire-and-forget, but the frame is retransmitted
//     until acknowledged. The payload is encoded at post, body
//     included: the caller's buffer is free immediately, and a
//     retransmission copies the layer's bytes, never the caller's.
//   - PostSend: the CQE is posted when the frame is *cumulatively
//     acknowledged*, not when the wire transmission finishes — one wait
//     block whose meaning is strengthened from "transmitted" to
//     "delivered"; the body is read until then.
//   - DrainRQ: delivers peer frames exactly once, in per-link seq
//     order, regardless of drops, duplicates, and delay spikes below.
//     Flush absorbs arrivals too, so an ACK completes its frame whether
//     or not the owner drains the receive queue.
//
// Silence is not death. A peer that goes unanswered for many rounds may
// only be late — a long compute phase, a GC pause, exactly the
// stragglers of the paper's Fig. 1 — so the layer keeps retransmitting,
// its timeout doubling up to MaxRTO, until the frame is acknowledged.
// Only a verdict condemns a peer: a PeerDown completion of the wrapped
// link, which each transport reaches from liveness evidence (tcp's
// lost connection, shm's flock, the sim's permanent partition). DrainCQ
// forwards it, then fails the unacknowledged signaled frames to every
// endpoint of that rank with ErrLinkDown, drops the inline ones, and
// settles later posts to the rank at once.

// ErrLinkDown is the error a send fails with when its destination was
// condemned: bare from this layer, wrapped around the cause from a byte
// transport and in a PeerDown verdict.
var ErrLinkDown = errors.New("nic: link down")

// errRelClosed refuses a post after Close.
var errRelClosed = errors.New("nic: reliable link closed")

// RelConfig tunes the reliability layer.
type RelConfig struct {
	// RTO is the initial retransmission timeout. Default 100µs.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 8*RTO.
	MaxRTO time.Duration
	// HdrBytes is the modeled wire overhead per data frame, and the
	// full size of an ACK frame. Default 16.
	HdrBytes int
}

func (c RelConfig) withDefaults() RelConfig {
	if c.RTO == 0 {
		c.RTO = 100 * time.Microsecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 8 * c.RTO
	}
	if c.HdrBytes == 0 {
		c.HdrBytes = 16
	}
	return c
}

// frame kinds.
const (
	relData uint8 = iota
	relAck
)

// relFrame is the reliability-layer wire envelope: it rides as the
// wrapped link's payload, around the caller's payload. On the send side
// the payload is already encoded (head, body); on the receive side
// RelCodec has decoded it into inner.
type relFrame struct {
	kind  uint8
	seq   uint64 // relData: per-link sequence number
	ack   uint64 // cumulative: every seq < ack has been received
	src   fabric.EndpointID
	bytes int // modeled payload bytes (excluding HdrBytes)

	head, body []byte // send side: the payload's encoding
	inner      any    // receive side: the payload decoded
}

// relPkt is one unacknowledged frame in a link's retransmission queue,
// encoded at post (body is the caller's only for a signaled frame).
type relPkt struct {
	seq        uint64
	head, body []byte
	bytes      int
	token      any
	hasToken   bool
}

// txLink is the sender half of one directed link.
type txLink struct {
	dst      fabric.EndpointID
	nextSeq  uint64
	unacked  []relPkt
	rto      time.Duration
	deadline time.Duration
}

// rxLink is the receiver half of one directed link.
type rxLink struct {
	nextExp uint64
	// ooo buffers frames that arrived ahead of a gap (selective
	// buffering under cumulative ACKs: the sender may retransmit them
	// anyway; the retransmits are dropped as duplicates here).
	ooo map[uint64]relFrame
}

// RelStats counts reliability-layer activity.
type RelStats struct {
	// Retransmits counts frames re-sent by the timer.
	Retransmits uint64
	// AcksSent and AcksReceived count ACK control frames.
	AcksSent, AcksReceived uint64
	// DupsDropped counts received frames discarded as duplicates.
	DupsDropped uint64
	// OutOfOrder counts frames buffered ahead of a sequence gap.
	OutOfOrder uint64
	// FramesFailed counts signaled frames failed on a verdict: those
	// unacknowledged when it came, and those posted after it.
	FramesFailed uint64
}

// relBatch is how many raw arrivals one absorb takes off the wrapped
// link; deeper queues are absorbed over several calls.
const relBatch = 256

// Reliable is the reliability protocol as a Link wrapped around another
// one. All methods are safe for concurrent use; MPI progress calls them
// (DrainCQ/DrainRQ from the netmod hook, Flush from the async thing
// SetArm's callback starts).
type Reliable struct {
	link   Link
	codec  Codec
	split  SplitCodec // codec's zero-copy side, nil when it has none
	rankOf func(fabric.EndpointID) int
	cfg    RelConfig

	mu     sync.Mutex
	tx     map[fabric.EndpointID]*txLink
	rx     map[fabric.EndpointID]*rxLink
	dead   map[int]bool // ranks a verdict condemned: no tx link to them is kept
	arm    func()       // SetArm's callback
	armed  bool         // a Flush is owed: some frame is unacknowledged
	closed bool
	out    int // total unacked frames across links
	stats  RelStats
	// raw and deliv are absorb's scratch: the wrapped link's arrivals,
	// and what they deliver in order.
	raw, deliv []fabric.Packet

	// cq holds this layer's completions and rq its in-order deliveries;
	// both are bound to the owner's work counter beside the wrapped
	// link's own queues.
	cq Queue[CQE]
	rq Queue[fabric.Packet]

	// met is the optional observability wiring (UseMetrics).
	met *relMetrics
}

// NewReliable wraps link with the reliability protocol. codec is the
// payload codec inside the envelope — the one link's own codec wraps
// in RelCodec — with which the layer encodes every post. rankOf is the
// transport's RankOfEndpoint: a PeerDown verdict names a rank, and the
// layer fails what it holds for each endpoint of it. The caller must
// route all traffic for link through the wrapper: raw and reliable
// frames cannot share a link.
func NewReliable(link Link, codec Codec, rankOf func(fabric.EndpointID) int, cfg RelConfig) *Reliable {
	r := &Reliable{
		link:   link,
		codec:  codec,
		rankOf: rankOf,
		cfg:    cfg.withDefaults(),
		tx:     make(map[fabric.EndpointID]*txLink),
		rx:     make(map[fabric.EndpointID]*rxLink),
		dead:   make(map[int]bool),
		raw:    make([]fabric.Packet, 0, relBatch),
	}
	r.split, _ = codec.(SplitCodec)
	return r
}

var _ Link = (*Reliable)(nil)

// The wrapped link's answers: its address, its clock (on which the
// retransmission deadlines live), and its receive side, where the
// layer finds its input (Link implementation).
func (r *Reliable) ID() fabric.EndpointID { return r.link.ID() }
func (r *Reliable) Now() time.Duration    { return r.link.Now() }
func (r *Reliable) PollRecv() bool        { return r.link.PollRecv() }
func (r *Reliable) Parking() bool         { return r.link.Parking() }

// Close refuses later posts and closes the wrapped link.
func (r *Reliable) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.link.Close()
}

// BindWork binds this layer's queues and the wrapped link's to w.
func (r *Reliable) BindWork(w WorkCounter) {
	r.cq.Bind(w)
	r.rq.Bind(w)
	r.link.BindWork(w)
}

// SetArm registers the callback that starts a Flush: the layer invokes
// it when its first frame goes unacknowledged, the wrapped link when
// its own output goes pending.
func (r *Reliable) SetArm(arm func()) {
	r.mu.Lock()
	r.arm = arm
	r.mu.Unlock()
	r.link.SetArm(arm)
}

// PendingTx counts what the wrapped link has not put on the wire yet
// and the frames this layer has not seen acknowledged.
func (r *Reliable) PendingTx() int {
	r.mu.Lock()
	n := r.out
	r.mu.Unlock()
	return n + r.link.PendingTx()
}

// QueuedCQ and QueuedRQ count this layer's entries and the wrapped
// link's: its control completions, its arrivals not yet absorbed.
func (r *Reliable) QueuedCQ() int { return r.cq.Len() + r.link.QueuedCQ() }
func (r *Reliable) QueuedRQ() int { return r.rq.Len() + r.link.QueuedRQ() }

func (r *Reliable) rxFor(src fabric.EndpointID) *rxLink {
	l, ok := r.rx[src]
	if !ok {
		l = &rxLink{}
		r.rx[src] = l
	}
	return l
}

// PostSendInline sends payload reliably with no completion signal. The
// payload is encoded before it returns, so the caller's buffer is free
// at once.
func (r *Reliable) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	return r.post(dst, payload, bytes, nil, false)
}

// PostSend sends payload reliably and posts a CQE carrying token when
// the frame is cumulatively acknowledged — or a CQE with
// Err = ErrLinkDown if a verdict condemns dst's rank first. Until then
// the layer may read the payload's body.
func (r *Reliable) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	return r.post(dst, payload, bytes, token, true)
}

// encode makes a post's bytes, as a byte transport does: the head into
// memory of the layer's own, and the body too for an inline post; a
// signaled post's body stays where it is until its CQE.
func (r *Reliable) encode(payload any, signaled bool) (head, body []byte, err error) {
	if r.split == nil {
		head, err = r.codec.Encode(nil, payload)
		return head, nil, err
	}
	if head, body, err = r.split.EncodeSplit(nil, payload); err != nil || signaled {
		return head, body, err
	}
	return append(head, body...), nil, nil
}

// post queues an encoded frame on dst's link and transmits its first
// copy. Once the frame is queued the layer owns its delivery: a failed
// transmission is retried by the timer like a lost one. A post to a
// condemned rank is settled at once: a signaled one fails through its
// CQE, an inline one is dropped.
func (r *Reliable) post(dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) error {
	head, body, err := r.encode(payload, signaled)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errRelClosed
	}
	l, ok := r.tx[dst]
	if !ok {
		if r.dead[r.rankOf(dst)] {
			var failed []any
			if signaled {
				failed = r.failedLocked(nil, token)
			}
			r.mu.Unlock()
			r.failCQ(failed)
			return nil
		}
		l = &txLink{dst: dst, rto: r.cfg.RTO}
		r.tx[dst] = l
	}
	f := relFrame{kind: relData, seq: l.nextSeq, ack: r.rxFor(dst).nextExp, src: r.link.ID(), bytes: bytes, head: head, body: body}
	l.nextSeq++
	if len(l.unacked) == 0 {
		l.rto = r.cfg.RTO
		l.deadline = r.Now() + l.rto
	}
	l.unacked = append(l.unacked, relPkt{seq: f.seq, head: head, body: body, bytes: bytes, token: token, hasToken: signaled})
	r.out++
	if m := r.met; m != nil && m.reg.On() {
		m.outstandingGus.Set(int64(r.out))
	}
	arm := r.armLocked()
	r.mu.Unlock()
	r.link.PostSendInline(dst, &f, r.cfg.HdrBytes+bytes)
	r.restartTimer(l, f.seq)
	if arm != nil {
		arm()
	}
	return nil
}

// armLocked marks the layer armed and returns the callback to invoke
// once r.mu is released, or nil when a Flush is already owed. Caller
// holds r.mu.
func (r *Reliable) armLocked() func() {
	if r.armed {
		return nil
	}
	r.armed = true
	return r.arm
}

// restartTimer starts l's retransmission timeout over once the frames
// from seq have left, if seq is still the oldest unacknowledged frame:
// the timer times the wire and the peer, not the post, which copies
// each frame on every link. It does nothing when an older frame is
// still waiting, or seq was acknowledged or failed meanwhile.
func (r *Reliable) restartTimer(l *txLink, seq uint64) {
	r.mu.Lock()
	if len(l.unacked) > 0 && l.unacked[0].seq == seq {
		l.deadline = r.Now() + l.rto
	}
	r.mu.Unlock()
}

// failedLocked appends the token of a signaled frame failed on a
// verdict to failed and counts it. Caller holds r.mu.
func (r *Reliable) failedLocked(failed []any, token any) []any {
	r.stats.FramesFailed++
	if m := r.met; m != nil && m.reg.On() {
		m.framesFailed.Inc()
	}
	return append(failed, token)
}

// failCQ posts the ErrLinkDown completion of each failed token.
func (r *Reliable) failCQ(failed []any) {
	for _, tok := range failed {
		r.cq.Push(CQE{Token: tok, At: r.Now(), Err: ErrLinkDown})
	}
}

// DrainCQ moves up to cap(buf) completion entries into buf[:0] and
// returns the filled slice: the wrapped link's control completions
// (PeerDown verdicts) first, then this layer's. A verdict condemns its
// rank before this layer's queue is drained, so the frames it fails
// complete after it.
func (r *Reliable) DrainCQ(buf []CQE) []CQE {
	buf = r.link.DrainCQ(buf)
	for _, c := range buf {
		if v, ok := c.Token.(PeerDown); ok {
			r.condemn(v.Rank)
		}
	}
	n := len(buf)
	return buf[:n+len(r.cq.Drain(buf[n:]))]
}

// condemn applies a verdict on rank: the tx links to its endpoints go,
// their unacknowledged signaled frames fail with ErrLinkDown and their
// inline ones are dropped, and later posts to it are settled at once.
// The receive side is left as it is: what the rank sent before its
// verdict is still delivered in order.
func (r *Reliable) condemn(rank int) {
	var failed []any
	r.mu.Lock()
	r.dead[rank] = true
	for dst, l := range r.tx {
		if r.rankOf(dst) != rank {
			continue
		}
		for _, p := range l.unacked {
			if p.hasToken {
				failed = r.failedLocked(failed, p.token)
			}
		}
		r.out -= len(l.unacked)
		l.unacked = nil
		delete(r.tx, dst)
	}
	if m := r.met; m != nil && m.reg.On() {
		m.outstandingGus.Set(int64(r.out))
	}
	r.mu.Unlock()
	r.failCQ(failed)
}

// DrainRQ absorbs what has arrived (absorb) and moves up to cap(buf)
// in-order deliveries into buf[:0], returning the filled slice. An
// empty drain costs two atomic loads and no allocations.
func (r *Reliable) DrainRQ(buf []fabric.Packet) []fabric.Packet {
	r.absorb()
	return r.rq.Drain(buf)
}

// Stats returns a snapshot of the reliability counters.
func (r *Reliable) Stats() RelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// handleAck applies a cumulative acknowledgment from src: every frame
// with seq < ack is delivered and leaves the retransmission queue.
// Caller holds r.mu.
func (r *Reliable) handleAckLocked(src fabric.EndpointID, ack uint64) {
	l, ok := r.tx[src]
	if !ok {
		return
	}
	popped := 0
	for len(l.unacked) > 0 && l.unacked[0].seq < ack {
		p := l.unacked[0]
		l.unacked[0] = relPkt{} // drop the references to its bytes
		l.unacked = l.unacked[1:]
		popped++
		if p.hasToken {
			r.cq.Push(CQE{Token: p.token, At: r.Now()})
		}
	}
	if popped > 0 {
		r.out -= popped
		if m := r.met; m != nil && m.reg.On() {
			m.outstandingGus.Set(int64(r.out))
		}
		// Forward progress: reset the backoff.
		l.rto = r.cfg.RTO
		l.deadline = r.Now() + l.rto
	}
}

// absorb takes one batch off the wrapped link's receive queue: it
// absorbs ACKs, suppresses duplicates, reorders past gaps, and appends
// the peer payloads to this layer's receive queue in per-link sequence
// order. It sends one cumulative ACK per source link that delivered (or
// re-delivered) data. An empty absorb costs one atomic load.
func (r *Reliable) absorb() {
	if r.link.QueuedRQ() == 0 {
		return
	}
	// due tracks the source links owed a cumulative ACK for this batch;
	// a fixed array avoids the per-call map (one slot per peer that
	// delivered in this batch).
	var dueArr [8]fabric.EndpointID
	due := dueArr[:0]
	markDue := func(src fabric.EndpointID) {
		for _, d := range due {
			if d == src {
				return
			}
		}
		due = append(due, src)
	}
	r.mu.Lock()
	raw := r.link.DrainRQ(r.raw)
	out := r.deliv[:0]
	deliver := func(pkt fabric.Packet, f *relFrame) {
		out = append(out, fabric.Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: f.inner, Bytes: f.bytes})
	}
	m := r.met
	mon := m != nil && m.reg.On()
	for _, pkt := range raw {
		f, ok := pkt.Payload.(*relFrame)
		if !ok {
			panic("nic: non-reliable frame on a reliable endpoint")
		}
		if f.kind == relAck {
			r.stats.AcksReceived++
			if mon {
				m.acksReceived.Inc()
			}
			r.handleAckLocked(f.src, f.ack)
			continue
		}
		// Data frames piggyback the sender's cumulative ack for the
		// reverse direction.
		r.handleAckLocked(f.src, f.ack)
		rl := r.rxFor(f.src)
		switch {
		case f.seq < rl.nextExp:
			// Duplicate (fabric duplication, or a retransmit whose ACK
			// was lost): drop, but re-ack so the sender stops resending.
			r.stats.DupsDropped++
			if mon {
				m.dupsDropped.Inc()
			}
			markDue(f.src)
		case f.seq == rl.nextExp:
			deliver(pkt, f)
			rl.nextExp++
			for {
				nf, ok := rl.ooo[rl.nextExp]
				if !ok {
					break
				}
				delete(rl.ooo, rl.nextExp)
				deliver(pkt, &nf)
				rl.nextExp++
			}
			markDue(f.src)
		default:
			// Ahead of a gap: an earlier frame was dropped. Buffer it;
			// the cumulative ACK (still at the gap) triggers the
			// sender's retransmission.
			if rl.ooo == nil {
				rl.ooo = make(map[uint64]relFrame)
			}
			if _, dup := rl.ooo[f.seq]; dup {
				r.stats.DupsDropped++
				if mon {
					m.dupsDropped.Inc()
				}
			} else {
				rl.ooo[f.seq] = *f
				r.stats.OutOfOrder++
				if mon {
					m.outOfOrder.Inc()
				}
			}
			markDue(f.src)
		}
	}
	if len(out) > 0 {
		r.rq.PushAll(out)
	}
	type pendingAck struct {
		dst fabric.EndpointID
		ack uint64
	}
	var ackArr [8]pendingAck
	acks := ackArr[:0]
	for _, src := range due {
		acks = append(acks, pendingAck{dst: src, ack: r.rxFor(src).nextExp})
		r.stats.AcksSent++
		if mon {
			m.acksSent.Inc()
		}
	}
	clear(raw)
	clear(out)
	r.raw, r.deliv = raw[:0], out[:0]
	self := r.link.ID()
	r.mu.Unlock()
	// Send ACKs outside the lock (Transmit in manual-clock mode can
	// deliver synchronously, re-entering this layer on a loopback peer).
	for _, a := range acks {
		f := &relFrame{kind: relAck, ack: a.ack, src: self}
		r.link.PostSendInline(a.dst, f, r.cfg.HdrBytes)
	}
}

// Flush runs the layer's deferred work once. It absorbs arrivals, so an
// ACK completes its frame even when nobody drains the receive queue. It
// runs the retransmission timer: a link whose oldest unacknowledged
// frame has outlived the current timeout gets its queue retransmitted
// with doubled backoff, capped at MaxRTO, for as long as it takes —
// only a verdict gives up on a peer (DrainCQ). Then it flushes the
// wrapped link.
//
// made reports a retransmission or the wrapped link's
// progress, not absorbed arrivals: their CQEs and deliveries wait in
// queues bound to the owner's work counter, and counting them would
// make a collated pass skip the netmod that drains them. idle reports
// that no frame is left unacknowledged (the layer disarmed itself; the
// next post arms it again) and that the wrapped link is idle too: the
// owner's async thing then returns Done.
//
// Flush never blocks and never sleeps: recovery latency is a function
// of how often the application drives progress.
func (r *Reliable) Flush() (made, idle bool) {
	r.absorb()
	now := r.Now()
	type resend struct {
		l      *txLink
		frames []relFrame
	}
	var resends []resend
	r.mu.Lock()
	m := r.met
	mon := m != nil && m.reg.On()
	for _, l := range r.tx {
		if len(l.unacked) == 0 || now < l.deadline {
			continue
		}
		ack := r.rxFor(l.dst).nextExp
		rs := resend{l: l, frames: make([]relFrame, len(l.unacked))}
		for i, p := range l.unacked {
			rs.frames[i] = relFrame{kind: relData, seq: p.seq, ack: ack, src: r.link.ID(), bytes: p.bytes, head: p.head, body: p.body}
		}
		resends = append(resends, rs)
		r.stats.Retransmits += uint64(len(l.unacked))
		if mon {
			m.retransmits.Add(uint64(len(l.unacked)))
			m.backoffRounds.Inc()
		}
		l.rto *= 2
		if l.rto > r.cfg.MaxRTO {
			l.rto = r.cfg.MaxRTO
		}
		l.deadline = now + l.rto
		made = true
	}
	if r.out == 0 {
		// Disarm atomically with the emptiness check: a concurrent post
		// either landed before (out > 0, stay armed) or will observe
		// armed == false and arm a fresh flush.
		r.armed = false
		idle = true
	}
	r.mu.Unlock()
	for _, rs := range resends {
		for i := range rs.frames {
			f := rs.frames[i]
			r.link.PostSendInline(rs.l.dst, &f, r.cfg.HdrBytes+f.bytes)
		}
		r.restartTimer(rs.l, rs.frames[0].seq)
	}
	linkMade, linkIdle := r.link.Flush()
	return made || linkMade, idle && linkIdle
}
