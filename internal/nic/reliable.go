package nic

import (
	"errors"
	"sync"
	"time"

	"gompix/internal/fabric"
)

// This file implements a reliability protocol on top of the raw
// endpoint, for use over a lossy fabric (fabric.FaultConfig): per-link
// sequence numbers, cumulative ACKs, in-order delivery with
// duplicate suppression, and a retransmission queue with exponential
// backoff. The retransmit timer is not a goroutine: Poll is designed to
// be driven as an MPIX Async thing from inside MPI progress, so
// recovery latency is governed by the paper's explicit progress model —
// a user-space MPI subsystem in the sense of §2.7.
//
// Semantics offered to the netmod above:
//
//   - PostSendInline: fire-and-forget, but the frame is retransmitted
//     until acknowledged (or its link dies). The caller's buffer is
//     free immediately, as with the raw inline send.
//   - PostSend: the CQE is posted when the frame is *cumulatively
//     acknowledged*, not when the wire transmission finishes — one wait
//     block whose meaning is strengthened from "transmitted" to
//     "delivered". A frame that exhausts its retransmission budget
//     posts a CQE with Err = ErrLinkDown instead of hanging forever.
//   - PollRQ: delivers peer frames exactly once, in per-link seq order,
//     regardless of drops, duplicates, and delay spikes below.
//
// A down link is quiescent, not dead: "down" only proves the peer went
// MaxRetries rounds without acknowledging, which a rank that simply is
// not driving progress (a long compute phase, a GC pause — exactly the
// stragglers of the paper's Fig. 1) produces as readily as a crashed
// one. Signaled frames keep the documented contract and fail with
// ErrLinkDown when the budget runs out, but fire-and-forget frames are
// PARKED on the link instead of discarded: dropping them silently would
// wedge the protocol above forever if the peer turns out to be merely
// slow. Any frame later received from the peer is evidence of life; it
// revives the link and resumes retransmission of the parked queue.
// Because condemnation may have abandoned signaled frames, data frames
// carry a resync floor (the oldest sequence number still deliverable)
// so the receiver can skip the holes instead of waiting forever for
// retransmissions that will never come.

// ErrLinkDown reports that a destination exhausted its retransmission
// budget and was declared unreachable.
var ErrLinkDown = errors.New("nic: link down")

// RelConfig tunes the reliability layer.
type RelConfig struct {
	// RTO is the initial retransmission timeout. Default 100µs.
	RTO time.Duration
	// MaxRTO caps the exponential backoff. Default 8*RTO.
	MaxRTO time.Duration
	// MaxRetries is the number of consecutive unanswered retransmission
	// rounds after which a link is declared down. Default 8.
	MaxRetries int
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
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
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
// fabric packet payload, wrapping the caller's payload.
type relFrame struct {
	kind  uint8
	seq   uint64 // relData: per-link sequence number
	ack   uint64 // cumulative: every seq < ack has been received
	floor uint64 // relData: oldest seq still deliverable (resync after abandonment)
	src   fabric.EndpointID
	inner any
	bytes int // inner payload bytes (excluding HdrBytes)
}

// relPkt is one unacknowledged frame in a link's retransmission queue.
type relPkt struct {
	seq      uint64
	inner    any
	bytes    int
	token    any
	hasToken bool
}

// txLink is the sender half of one directed link. While down, unacked
// holds only parked fire-and-forget frames (signaled frames failed at
// condemnation); they are excluded from the layer's outstanding count
// and not retransmitted until the link revives.
type txLink struct {
	dst      fabric.EndpointID
	nextSeq  uint64
	unacked  []relPkt
	rto      time.Duration
	deadline time.Duration
	retries  int
	down     bool
}

// floorLocked returns the oldest sequence number this link will still
// (re)deliver; everything below it has been acknowledged or abandoned.
// Caller holds r.mu.
func (l *txLink) floorLocked() uint64 {
	if len(l.unacked) > 0 {
		return l.unacked[0].seq
	}
	return l.nextSeq
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
	// LinksDown counts links declared unreachable.
	LinksDown uint64
	// LinksRevived counts down links resurrected by evidence of life
	// (a frame received from the condemned peer).
	LinksRevived uint64
	// FramesFailed counts signaled frames abandoned on a down link.
	FramesFailed uint64
}

// Reliable layers the reliability protocol over a raw endpoint. All
// methods are safe for concurrent use; the intended driver is MPI
// progress (PollCQ/PollRQ from the netmod hook, Poll from an async
// thing).
type Reliable struct {
	link Link
	cfg  RelConfig

	mu    sync.Mutex
	tx    map[fabric.EndpointID]*txLink
	rx    map[fabric.EndpointID]*rxLink
	armed bool
	rearm bool // a revival armed the layer; the owner must restart its poll
	out   int  // total unacked frames across live links (parked excluded)
	stats RelStats

	// cq is this layer's own completion queue; a bound work counter
	// mirrors its depth into the owning stream's netmod counter (the raw
	// queues are mirrored by the wrapped endpoint's own binding).
	cq Queue[CQE]

	// met is the optional observability wiring (UseMetrics).
	met *relMetrics
}

// NewReliable wraps a raw link with the reliability protocol. The
// caller must route all traffic for that link through the wrapper: raw
// and reliable frames cannot share a link.
func NewReliable(link Link, cfg RelConfig) *Reliable {
	return &Reliable{
		link: link,
		cfg:  cfg.withDefaults(),
		tx:   make(map[fabric.EndpointID]*txLink),
		rx:   make(map[fabric.EndpointID]*rxLink),
	}
}

// Link returns the wrapped raw link.
func (r *Reliable) Link() Link { return r.link }

// BindWork attaches a stream work counter fed by this layer's own
// completion queue; callers should additionally bind the wrapped
// endpoint so raw arrivals are counted too.
func (r *Reliable) BindWork(w WorkCounter) { r.cq.Bind(w) }

func (r *Reliable) txFor(dst fabric.EndpointID) *txLink {
	l, ok := r.tx[dst]
	if !ok {
		l = &txLink{dst: dst, rto: r.cfg.RTO}
		r.tx[dst] = l
	}
	return l
}

func (r *Reliable) rxFor(src fabric.EndpointID) *rxLink {
	l, ok := r.rx[src]
	if !ok {
		l = &rxLink{}
		r.rx[src] = l
	}
	return l
}

// now returns the wrapped link's clock time.
func (r *Reliable) now() time.Duration { return r.link.Now() }

// post queues payload on dst's link and transmits the first copy. It
// returns true when the caller must arm the retransmit poll (the layer
// transitioned from idle to having unacknowledged frames).
func (r *Reliable) post(dst fabric.EndpointID, payload any, bytes int, token any, hasToken bool) (arm bool) {
	r.mu.Lock()
	l := r.txFor(dst)
	if l.down {
		if hasToken {
			// Signaled sends keep the fail-fast ErrLinkDown contract.
			r.mu.Unlock()
			r.failCQ(token)
			return false
		}
		// Park the frame (not counted outstanding, not retransmitted)
		// but still transmit one copy: if the peer is alive, its ACK is
		// the evidence of life that revives this link.
		f := relFrame{kind: relData, seq: l.nextSeq, ack: r.rxFor(dst).nextExp, src: r.link.ID(), inner: payload, bytes: bytes}
		l.nextSeq++
		l.unacked = append(l.unacked, relPkt{seq: f.seq, inner: payload, bytes: bytes})
		f.floor = l.floorLocked()
		r.mu.Unlock()
		r.link.PostSendInline(dst, &f, r.cfg.HdrBytes+bytes)
		return false
	}
	f := relFrame{kind: relData, seq: l.nextSeq, ack: r.rxFor(dst).nextExp, src: r.link.ID(), inner: payload, bytes: bytes}
	l.nextSeq++
	if len(l.unacked) == 0 {
		l.rto = r.cfg.RTO
		l.retries = 0
		l.deadline = r.now() + l.rto
	}
	l.unacked = append(l.unacked, relPkt{seq: f.seq, inner: payload, bytes: bytes, token: token, hasToken: hasToken})
	f.floor = l.floorLocked()
	r.out++
	if m := r.met; m != nil && m.reg.On() {
		m.outstandingGus.Set(int64(r.out))
	}
	if !r.armed {
		r.armed = true
		arm = true
	}
	r.mu.Unlock()
	r.link.PostSendInline(dst, &f, r.cfg.HdrBytes+bytes)
	r.restartTimer(l, f.seq)
	return arm
}

// restartTimer starts l's retransmission timeout over once the frames
// from seq have left, if seq is still the oldest unacknowledged frame:
// the timer times the wire and the peer, not the post, which encodes
// each frame (a copy of its body) on every link. It does nothing when
// an older frame is still waiting, seq was acknowledged meanwhile or
// the link went down.
func (r *Reliable) restartTimer(l *txLink, seq uint64) {
	r.mu.Lock()
	if !l.down && len(l.unacked) > 0 && l.unacked[0].seq == seq {
		l.deadline = r.now() + l.rto
	}
	r.mu.Unlock()
}

// PostSendInline sends payload reliably with no completion signal; the
// caller's buffer is free immediately. The returned flag tells the
// caller to (re)start the retransmit poll — see Poll.
func (r *Reliable) PostSendInline(dst fabric.EndpointID, payload any, bytes int) (arm bool) {
	return r.post(dst, payload, bytes, nil, false)
}

// PostSend sends payload reliably and posts a CQE carrying token when
// the frame is cumulatively acknowledged — or a CQE with
// Err = ErrLinkDown if the link dies first.
func (r *Reliable) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) (arm bool) {
	return r.post(dst, payload, bytes, token, true)
}

func (r *Reliable) failCQ(token any) {
	r.cq.Push(CQE{Token: token, At: r.now(), Err: ErrLinkDown})
}

// DrainCQ moves up to cap(buf) completion entries into buf[:0] and
// returns the filled slice; zero allocations, one lock per batch.
func (r *Reliable) DrainCQ(buf []CQE) []CQE { return r.cq.Drain(buf) }

// PollCQ drains up to max completion entries (max <= 0 drains all).
// Allocating convenience wrapper over DrainCQ.
func (r *Reliable) PollCQ(max int) []CQE { return pollAll(max, r.cq.Len(), r.DrainCQ) }

// QueuedCQ returns the number of unpolled completion entries.
func (r *Reliable) QueuedCQ() int { return r.cq.Len() }

// QueuedRQ returns the number of unpolled raw arrivals.
func (r *Reliable) QueuedRQ() int { return r.link.QueuedRQ() }

// Outstanding returns the number of unacknowledged frames.
func (r *Reliable) Outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.out
}

// LinkDown reports whether dst has been declared unreachable.
func (r *Reliable) LinkDown(dst fabric.EndpointID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.tx[dst]
	return ok && l.down
}

// Stats returns a snapshot of the reliability counters.
func (r *Reliable) Stats() RelStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// reviveLocked resurrects a down tx link: any frame received from the
// peer proves it is alive (it was merely slow, or the outage healed),
// so the parked queue rejoins the outstanding count and retransmission
// resumes immediately. Caller holds r.mu.
func (r *Reliable) reviveLocked(src fabric.EndpointID) {
	l, ok := r.tx[src]
	if !ok || !l.down {
		return
	}
	l.down = false
	l.retries = 0
	l.rto = r.cfg.RTO
	l.deadline = r.now() // parked frames retransmit on the next poll
	r.out += len(l.unacked)
	r.stats.LinksRevived++
	if m := r.met; m != nil && m.reg.On() {
		m.linksRevived.Inc()
		m.outstandingGus.Set(int64(r.out))
	}
	if !r.armed && r.out > 0 {
		r.armed = true
		r.rearm = true
	}
}

// TakeRearm reports — and clears — whether a link revival armed the
// layer while no retransmit poll was running. The owner must check it
// after every receive drain and restart its poll when true (mirroring
// the arm flag PostSend returns).
func (r *Reliable) TakeRearm() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.rearm
	r.rearm = false
	return a
}

// handleAck applies a cumulative acknowledgment from src: every frame
// with seq < ack is delivered and leaves the retransmission queue.
// Caller holds r.mu.
func (r *Reliable) handleAckLocked(src fabric.EndpointID, ack uint64) {
	l, ok := r.tx[src]
	if !ok || l.down {
		return
	}
	popped := 0
	for len(l.unacked) > 0 && l.unacked[0].seq < ack {
		p := l.unacked[0]
		l.unacked = l.unacked[1:]
		popped++
		if p.hasToken {
			r.cq.Push(CQE{Token: p.token, At: r.now()})
		}
	}
	if popped > 0 {
		r.out -= popped
		if m := r.met; m != nil && m.reg.On() {
			m.outstandingGus.Set(int64(r.out))
		}
		// Forward progress: reset the backoff.
		l.retries = 0
		l.rto = r.cfg.RTO
		l.deadline = r.now() + l.rto
	}
}

// DrainRQ drains the raw receive queue (batched through the caller's
// raw scratch buffer), absorbs ACKs, suppresses duplicates, reorders
// past gaps, and appends the peer payloads in per-link sequence order
// to buf[:0], returning the filled slice. It sends one cumulative ACK
// per source link that delivered (or re-delivered) data this call.
// An empty drain costs one atomic load and no allocations; buf may
// grow past its capacity only when an out-of-order flush delivers more
// packets than the raw batch carried.
func (r *Reliable) DrainRQ(buf, raw []fabric.Packet) []fabric.Packet {
	out := buf[:0]
	raw = r.link.DrainRQ(raw)
	if len(raw) == 0 {
		return out
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
	m := r.met
	mon := m != nil && m.reg.On()
	for _, pkt := range raw {
		f, ok := pkt.Payload.(*relFrame)
		if !ok {
			panic("nic: non-reliable frame on a reliable endpoint")
		}
		// Any frame from the peer — ACK or data — is evidence of life:
		// a condemned link to it comes back before the ack applies.
		r.reviveLocked(f.src)
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
		if f.floor > rl.nextExp {
			// The sender abandoned frames below floor (signaled frames
			// purged when it condemned this link); they will never be
			// retransmitted. Flush whatever arrived ahead of the holes,
			// then resync past them.
			if len(rl.ooo) > 0 {
				for seq := rl.nextExp; seq < f.floor; seq++ {
					if nf, ok := rl.ooo[seq]; ok {
						delete(rl.ooo, seq)
						out = append(out, fabric.Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: nf.inner, Bytes: nf.bytes})
					}
				}
			}
			rl.nextExp = f.floor
			for {
				nf, ok := rl.ooo[rl.nextExp]
				if !ok {
					break
				}
				delete(rl.ooo, rl.nextExp)
				out = append(out, fabric.Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: nf.inner, Bytes: nf.bytes})
				rl.nextExp++
			}
			markDue(f.src)
		}
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
			out = append(out, fabric.Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: f.inner, Bytes: f.bytes})
			rl.nextExp++
			for {
				nf, ok := rl.ooo[rl.nextExp]
				if !ok {
					break
				}
				delete(rl.ooo, rl.nextExp)
				out = append(out, fabric.Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: nf.inner, Bytes: nf.bytes})
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
	self := r.link.ID()
	r.mu.Unlock()
	// Send ACKs outside the lock (Transmit in manual-clock mode can
	// deliver synchronously, re-entering this layer on a loopback peer).
	for _, a := range acks {
		f := &relFrame{kind: relAck, ack: a.ack, src: self}
		r.link.PostSendInline(a.dst, f, r.cfg.HdrBytes)
	}
	return out
}

// PollRQ drains up to max raw arrivals (max <= 0 drains all) and
// returns the in-order deliveries in a fresh slice. Allocating
// convenience wrapper over DrainRQ.
func (r *Reliable) PollRQ(max int) []fabric.Packet {
	return pollAll(max, r.link.QueuedRQ(), func(buf []fabric.Packet) []fabric.Packet {
		return r.DrainRQ(buf, make([]fabric.Packet, 0, cap(buf)))
	})
}

// Poll runs the retransmission timer once: any link whose oldest
// unacknowledged frame has outlived the current timeout gets its queue
// retransmitted with doubled (capped) backoff; a link that exhausts
// MaxRetries consecutive rounds is declared down — its signaled frames
// fail with ErrLinkDown, its fire-and-forget frames park until the
// peer shows signs of life (see reviveLocked).
// It reports whether anything was (re)transmitted or failed, and
// whether the layer is idle — when idle is true the poll has disarmed
// itself and the caller's async thing should return Done (the next
// PostSend arms a fresh one).
//
// Poll is intended to run as an MPIX Async poll function: it never
// blocks, never sleeps, and makes recovery latency a function of how
// often the application drives progress.
func (r *Reliable) Poll() (made bool, idle bool) {
	now := r.now()
	type resend struct {
		l      *txLink
		frames []relFrame
	}
	var resends []resend
	var failed []any
	r.mu.Lock()
	m := r.met
	mon := m != nil && m.reg.On()
	for _, l := range r.tx {
		if l.down || len(l.unacked) == 0 || now < l.deadline {
			continue
		}
		l.retries++
		if l.retries > r.cfg.MaxRetries {
			// Condemn the link: signaled frames fail with ErrLinkDown as
			// promised, but fire-and-forget frames are parked — the peer
			// may only be slow, and a later sign of life revives the
			// link and resumes delivering them (see reviveLocked).
			l.down = true
			r.stats.LinksDown++
			if mon {
				m.linksDown.Inc()
			}
			kept := make([]relPkt, 0, len(l.unacked))
			dropped := 0
			for _, p := range l.unacked {
				if p.hasToken {
					failed = append(failed, p.token)
					dropped++
				} else {
					kept = append(kept, p)
				}
			}
			r.stats.FramesFailed += uint64(dropped)
			if mon {
				m.framesFailed.Add(uint64(dropped))
			}
			r.out -= len(l.unacked) // parked frames leave the count too
			if mon {
				m.outstandingGus.Set(int64(r.out))
			}
			l.unacked = kept
			made = true
			continue
		}
		ack := r.rxFor(l.dst).nextExp
		floor := l.floorLocked()
		rs := resend{l: l, frames: make([]relFrame, len(l.unacked))}
		for i, p := range l.unacked {
			rs.frames[i] = relFrame{kind: relData, seq: p.seq, ack: ack, floor: floor, src: r.link.ID(), inner: p.inner, bytes: p.bytes}
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
		// Disarm atomically with the emptiness check: a concurrent
		// PostSend either landed before (out > 0, stay armed) or will
		// observe armed == false and arm a fresh poll.
		r.armed = false
		idle = true
	}
	r.mu.Unlock()
	for _, tok := range failed {
		r.failCQ(tok)
	}
	for _, rs := range resends {
		for i := range rs.frames {
			f := rs.frames[i]
			r.link.PostSendInline(rs.l.dst, &f, r.cfg.HdrBytes+f.bytes)
		}
		r.restartTimer(rs.l, rs.frames[0].seq)
	}
	return made, idle
}
