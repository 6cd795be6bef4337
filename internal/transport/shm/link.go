package shm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/transport/framing"
)

// deliverRunCap bounds a same-link delivery run: one RQ lock per run.
const deliverRunCap = 256

// Link is one VCI's endpoint on the shared-memory transport
// (nic.Link). Posts append frames to the destination peer's coalescing
// queue and pump inline while ring cells are free; a full ring parks
// the tail for Flush — invoked by the owning stream's progress via the
// Armer callback — which is the sender-side-progress-driven chunking.
// The receive side is pure polling: PollRecv (nic.RxPoller) drains
// every inbound ring on the caller's thread. There is no kernel to
// interrupt us when a peer produces, so BindWork parks one permanent
// work unit on the stream's netmod counter, keeping the class polled
// every pass; an empty poll is two atomic loads per peer ring.
type Link struct {
	net  *Network
	id   fabric.EndpointID
	work nic.WorkCounter

	arm func()

	armMu sync.Mutex
	armed atomic.Bool // fast-path readable; transitions under armMu

	// pending counts this link's posted-but-unsettled frames.
	pending atomic.Int64

	cqMu sync.Mutex
	cq   []nic.CQE
	nCQ  atomic.Int64

	rqMu sync.Mutex
	rq   []fabric.Packet
	nRQ  atomic.Int64

	closed atomic.Bool
}

// ID returns the link's global endpoint address.
func (l *Link) ID() fabric.EndpointID { return l.id }

// BindWork attaches the owning stream's netmod work counter and parks
// the permanent polling unit on it (released on Close): shared-memory
// receive has no readiness notification, so the netmod class must stay
// pollable for cross-process arrivals to be seen.
func (l *Link) BindWork(w nic.WorkCounter) {
	l.work = w
	if w != nil {
		w.Add(1)
	}
}

// Now returns the transport clock.
func (l *Link) Now() time.Duration { return l.net.clk.Now() }

// SetArm registers the idle→busy callback (nic.Armer).
func (l *Link) SetArm(arm func()) { l.arm = arm }

// PendingTx reports posted-but-unsettled frames (nic.TxPender).
func (l *Link) PendingTx() int { return int(l.pending.Load()) }

// Close marks the link dead and releases the parked work unit; the
// Network owns the mappings.
func (l *Link) Close() error {
	if l.closed.CompareAndSwap(false, true) {
		if w := l.work; w != nil {
			w.Add(-1)
		}
	}
	return nil
}

// PostSendInline queues a frame with no completion (nic.Link); the
// payload is encoded immediately (copy-at-injection semantics).
func (l *Link) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	return l.post(dst, payload, bytes, nil, false)
}

// PostSend queues a frame whose CQE (carrying token) is posted once
// the frame is fully published into the shared ring. A post to a peer
// already known down or departed succeeds (returns nil) and surfaces
// the failure as an error CQE — never both, so the token completes
// exactly once.
func (l *Link) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	return l.post(dst, payload, bytes, token, true)
}

func (l *Link) post(dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) error {
	if l.closed.Load() || l.net.closed.Load() {
		return errClosed
	}
	rank := int(dst) % l.net.cfg.WorldSize
	p := l.net.peers[rank]
	if p == nil {
		return fmt.Errorf("shm: endpoint %d (rank %d) not reachable over shared memory", dst, rank)
	}
	codec := l.net.codec
	if codec == nil {
		panic("shm: no codec installed (transport.CodecSetter not wired)")
	}
	p.mu.Lock()
	if p.down != nil || p.departed {
		err := p.down
		if err == nil {
			err = fmt.Errorf("shm: rank %d departed", p.rank)
		}
		p.mu.Unlock()
		// A signaled post to a down/departed peer reports the failure
		// through the CQE ONLY: returning the error as well would give
		// the caller a second completion path for the same token (see
		// the tcp link's matching branch).
		if signaled {
			l.pushCQ(nic.CQE{Token: token, At: l.net.clk.Now(), Err: fmt.Errorf("%w: %v", nic.ErrLinkDown, err)})
			return nil
		}
		return err
	}
	if err := p.q.Append(codec, l.net.split, l, l.id, dst, payload, bytes, token, signaled); err != nil {
		p.mu.Unlock()
		return fmt.Errorf("shm: encode: %w", err)
	}
	l.pending.Add(1)
	// Inline pump — but only when the transmit ring is empty. An empty
	// ring means the consumer may be idle, so publishing (and ringing
	// its doorbell) right here is the latency path for a lone send. A
	// nonempty ring means the consumer already owes itself a drain;
	// parking this frame instead lets the next flush poll pack it
	// densely with its burst neighbors — one ring cell per pump rather
	// than one per message, which on the message-rate window cuts both
	// sides' per-cell costs ~60×. Settlement happens under the peer
	// lock — the scratch belongs to the peer — which is safe because no
	// path acquires a peer lock while holding a CQ lock.
	if p.tx != nil && p.tx.head.Load() == p.tx.tail.Load() {
		l.net.settleFrames(l.net.pumpPeerLocked(p))
	}
	parked := p.q.Pending() > 0
	p.mu.Unlock()
	if parked {
		l.kick()
	}
	return nil
}

// kick arms the flush poll if the link has pending output and is not
// already armed; never called under a peer lock.
func (l *Link) kick() {
	if l.arm == nil || l.pending.Load() == 0 {
		return
	}
	// Already-armed is the common case on a burst (one kick per post):
	// the atomic read keeps the mutex off that path. The stale-read
	// race is benign — Flush only disarms when pending is zero, and
	// this post bumped pending before reading armed.
	if l.armed.Load() {
		return
	}
	l.armMu.Lock()
	if l.armed.Load() {
		l.armMu.Unlock()
		return
	}
	l.armed.Store(true)
	l.armMu.Unlock()
	l.arm()
}

// Flush pumps every peer's parked output into its transmit ring
// (nic.Flusher). It reports whether anything moved and whether this
// link disarmed (nothing of its own left pending).
func (l *Link) Flush() (made, idle bool) {
	if l.net.closed.Load() {
		return false, true
	}
	waiting := false
	for _, p := range l.net.peers {
		if p == nil {
			continue
		}
		m, w := l.net.flushPeer(p)
		made = made || m
		waiting = waiting || w
	}
	l.net.ringOwed() // a flush-only driver must still deliver wakeups
	l.armMu.Lock()
	idle = l.pending.Load() == 0 && !waiting
	if idle {
		l.armed.Store(false)
	}
	l.armMu.Unlock()
	return made, idle
}

// flushPeer pumps one peer's queue; waiting reports a still-parked
// tail (ring full).
func (n *Network) flushPeer(p *peer) (made, waiting bool) {
	p.mu.Lock()
	if p.down != nil || p.departed || p.tx == nil {
		p.mu.Unlock()
		return false, false
	}
	if p.q.Pending() == 0 {
		p.mu.Unlock()
		return false, false
	}
	before := p.q.Written()
	settled := n.pumpPeerLocked(p)
	n.settleFrames(settled)
	made = p.q.Written() > before
	waiting = p.q.Pending() > 0
	if waiting {
		// Output is parked behind a full ring. If its consumer stopped
		// polling after those cells were published, nobody was rung for
		// them: let ringOwed judge its stamp again on every such pass, so
		// that the watcher drains the ring of a rank that went computing.
		p.bellBacklog.Store(true)
	}
	p.mu.Unlock()
	return made, waiting
}

// pumpPeerLocked pushes queued bytes into the transmit ring and pops
// the frames the watermark passed. Caller holds p.mu; the returned
// scratch is only valid until the next pump of this peer, so callers
// settle before releasing their hold on the send path.
func (n *Network) pumpPeerLocked(p *peer) []outFrame {
	if p.tx == nil {
		return nil
	}
	tailBefore := p.tx.tail.Load()
	before := p.q.Written()
	if p.q.PumpTo(p.tx) {
		n.txChunks.Add(uint64((p.q.Written() - before + int64(p.tx.cellPayload) - 1) / int64(p.tx.cellPayload)))
		// Doorbell gate: wake the consumer only when it may not know
		// the ring has data. If its head has reached the pre-pump tail,
		// every older cell was consumed and it may since have gone idle
		// — the post-publish head read (not the pre-pump one) closes
		// the race where the consumer drains the last old cell and
		// parks between our check and our publish. A head still behind
		// the old tail proves unconsumed cells predate this pump, so
		// the consumer is awake or already owes itself a drain. The
		// byte itself is written by the next progress pass (ringOwed),
		// not here — see peer.bellOwed.
		if p.tx.head.Load() >= tailBefore {
			p.bellOwed.Store(true)
		}
	}
	p.scratch = p.q.PopSettled(p.scratch)
	return p.scratch
}

// ringPeerLocked writes one wakeup byte into the peer's doorbell FIFO,
// lazily opening the write side. Caller holds p.mu. Steady traffic
// never reaches here (the ring stays nonempty), so the open retries
// while the peer is still starting cost nothing in steady state.
func (n *Network) ringPeerLocked(p *peer) {
	if p.bellFd == -1 {
		fd, retry := openPeerDoorbell(n.dir, p.rank)
		if fd < 0 && !retry {
			p.bellFd = bellClosed
			return
		}
		p.bellFd = fd // may stay -1: reader not up yet, retry next ring
	}
	if p.bellFd >= 0 {
		if ringBell(p.bellFd) {
			n.bellsRung.Add(1)
			if met := n.met.Load(); met != nil {
				met.bellsRung.Inc()
			}
		} else {
			p.bellFd = bellClosed // reader gone: never retry
		}
	}
}

// settleFrames delivers success completions for fully published
// frames.
func (n *Network) settleFrames(frames []outFrame) {
	if len(frames) == 0 {
		return
	}
	now := n.clk.Now()
	for _, f := range frames {
		if f.Signaled {
			f.Link.pushCQ(nic.CQE{Token: f.Token, At: now})
		}
		f.Link.pending.Add(-1)
	}
}

// PollRecv drains every inbound ring on the caller's thread
// (nic.RxPoller) and runs the gated liveness sweep. Reports whether
// any frame was delivered.
func (l *Link) PollRecv() (made bool) {
	n := l.net
	if n.closed.Load() {
		return false
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		if n.drainPeer(p) {
			made = true
		}
	}
	n.ringOwed()
	n.pollTick()
	return made
}

// ringOwed settles the doorbell debts recorded since the last pass:
// the wakeup byte goes to every owed peer that is not polling (its
// stamp is zero — at rest or parked — or stale — computing,
// descheduled, dead), and a polling peer is left alone. Deferring the
// FIFO write here — the tail of the poster's own progress pass —
// coalesces a burst of posts into one bell and one wakeup preemption
// instead of one per pump. The order that makes the skip safe is
// publish (tail store) → stamp load here, against the waiter's stamp
// store (zero) → ring re-check → sleep in Link.Parking: one of the two
// sides sees the other.
func (n *Network) ringOwed() {
	for _, p := range n.peers {
		if p == nil || !(p.bellOwed.Load() || p.bellBacklog.Load()) {
			continue
		}
		published := p.bellOwed.Swap(false)
		if !p.bellBacklog.Swap(false) && !published {
			continue
		}
		p.mu.Lock()
		switch {
		case p.tx == nil:
		case !n.consumerPolling(p.tx):
			n.ringPeerLocked(p)
		case published:
			n.bellsSupp.Add(1)
			if met := n.met.Load(); met != nil {
				met.bellsSuppressed.Inc()
			}
		}
		p.mu.Unlock()
	}
}

// drainPeer consumes the peer's inbound ring: cell chunks append to
// the reassembly buffer, complete frames parse in place and deliver in
// same-link runs. The cell budget is snapshotted at entry so a fast
// producer cannot livelock the poll.
func (n *Network) drainPeer(p *peer) (made bool) {
	// Lock-free emptiness gate: a spinning progress pass polls this for
	// every peer thousands of times per millisecond, so the idle path
	// must stay at a few atomic loads — no TryLock. An empty ring has
	// nothing to drain unless an unprocessed goodbye marker is pending.
	if r := p.rx; r == nil || (r.empty() && (p.gone.Load() || !r.departed())) {
		return false
	}
	if !p.rxMu.TryLock() {
		return false // another stream's poll owns this ring right now
	}
	defer p.rxMu.Unlock()
	return n.drainPeerLocked(p)
}

// drainPeerLocked is drainPeer's body; the doorbell watcher calls it
// under a blocking lock (a dedicated goroutine may wait; a progress
// pass must not).
func (n *Network) drainPeerLocked(p *peer) (made bool) {
	r := p.rx
	if r == nil {
		return false
	}
	budget := r.occupied()
	for i := 0; i < budget; i++ {
		chunk := r.peek()
		if chunk == nil {
			break
		}
		if n.ingest(p, chunk) {
			made = true
		}
		r.advance()
		n.rxChunks.Add(1)
	}
	p.flushDeliveries()
	// Goodbye is honored only once the stream has fully drained, so
	// every frame published before the marker still delivers.
	if !p.gone.Load() && p.rend == p.rpos && !p.asm.Active() && r.empty() && r.departed() {
		p.gone.Store(true)
		n.markDeparted(p)
	}
	return made
}

// ingest consumes one cell chunk of the peer's byte stream: into the
// frame under assembly while there is one, otherwise onto the
// reassembly buffer, whose complete frames parse in place.
func (n *Network) ingest(p *peer, chunk []byte) (made bool) {
	for len(chunk) > 0 {
		if !p.asm.Active() {
			p.ensureSpace(len(chunk))
			p.rend += copy(p.rbuf[p.rend:], chunk)
			return n.parseFrames(p) || made
		}
		c := copy(p.asm.Tail(), chunk)
		chunk = chunk[c:]
		if !p.asm.Filled(c) {
			continue
		}
		dst, src, bytes, payload, err := p.asm.Finish(n.split)
		if !n.deliver(p, dst, src, bytes, payload, err) {
			return made
		}
		made = true
	}
	return made
}

// ensureSpace makes room for nb more bytes: compact first, grow only
// when the live region itself outgrows the buffer (same discipline as
// the TCP read path).
func (p *peer) ensureSpace(nb int) {
	if p.rend+nb <= len(p.rbuf) {
		return
	}
	live := p.rend - p.rpos
	if p.rpos > 0 {
		copy(p.rbuf, p.rbuf[p.rpos:p.rend])
		p.rpos, p.rend = 0, live
	}
	if p.rend+nb <= len(p.rbuf) {
		return
	}
	size := len(p.rbuf)
	if size == 0 {
		size = 16 << 10
	}
	for size < live+nb {
		size *= 2
	}
	nbuf := make([]byte, size)
	copy(nbuf, p.rbuf[:p.rend])
	p.rbuf = nbuf
}

// parseFrames consumes complete frames from the reassembly buffer; a
// large frame that has only begun to arrive moves to a staging buffer
// (p.asm) that the following cells fill directly. Frame corruption in a
// shared segment is unrecoverable for the byte stream (there is no
// resync point), so it fails the peer.
func (n *Network) parseFrames(p *peer) (made bool) {
	for {
		avail := p.rend - p.rpos
		if avail < 4 {
			break
		}
		flen := int(binary.LittleEndian.Uint32(p.rbuf[p.rpos:]))
		if flen < framing.HdrLen || flen > maxFrame {
			n.rxCorrupt.Add(1)
			n.failStream(p, fmt.Errorf("corrupt frame length %d", flen))
			break
		}
		if avail < 4+flen {
			if n.split != nil && framing.Stageable(flen) {
				p.asm.Begin(flen, p.rbuf[p.rpos+4:p.rend])
				p.rpos = p.rend
			}
			break
		}
		dst, src, bytes, data := framing.ParseHdr(p.rbuf[p.rpos+4 : p.rpos+4+flen])
		payload, err := n.codec.Decode(data)
		p.rpos += 4 + flen
		if !n.deliver(p, dst, src, bytes, payload, err) {
			break
		}
		made = true
	}
	if p.rpos == p.rend {
		p.rpos, p.rend = 0, 0
	}
	return made
}

// deliver queues one decoded frame for its destination link; a frame
// that failed to decode fails the stream, and it reports false. A frame
// for an endpoint nobody registered is counted and skipped.
func (n *Network) deliver(p *peer, dst, src fabric.EndpointID, bytes int, payload any, err error) bool {
	if err != nil {
		n.rxCorrupt.Add(1)
		n.failStream(p, fmt.Errorf("decode: %v", err))
		return false
	}
	tgt := n.lookupLink(dst)
	if tgt == nil {
		n.rxUnknownEP.Add(1)
		return true
	}
	n.rxFrames.Add(1)
	p.push(tgt, fabric.Packet{Src: src, Dst: dst, Payload: payload, Bytes: bytes})
	return true
}

// failStream converts an unrecoverable receive-stream error into a
// peer failure and discards the buffered bytes.
func (n *Network) failStream(p *peer, cause error) {
	p.flushDeliveries()
	p.rpos, p.rend = 0, 0
	p.asm.Drop()
	n.verdict(p, fmt.Errorf("shm: rank %d stream corrupt: %v", p.rank, cause))
}

// push batches same-link deliveries; one RQ lock per run.
func (p *peer) push(tgt *Link, pkt fabric.Packet) {
	if p.dlvTgt != tgt || len(p.dlv) >= deliverRunCap {
		p.flushDeliveries()
		p.dlvTgt = tgt
	}
	p.dlv = append(p.dlv, pkt)
	if len(p.dlv) >= deliverRunCap {
		p.flushDeliveries()
	}
}

func (p *peer) flushDeliveries() {
	if len(p.dlv) == 0 {
		return
	}
	p.dlvTgt.deliverBatch(p.dlv)
	for i := range p.dlv {
		p.dlv[i] = fabric.Packet{}
	}
	p.dlv = p.dlv[:0]
	p.dlvTgt = nil
}

// deliverBatch appends a run of inbound packets to the receive queue.
func (l *Link) deliverBatch(ps []fabric.Packet) {
	l.rqMu.Lock()
	l.rq = append(l.rq, ps...)
	l.rqMu.Unlock()
	l.nRQ.Add(int64(len(ps)))
	if w := l.work; w != nil {
		w.Add(len(ps))
	}
}

func (l *Link) pushCQ(cqe nic.CQE) {
	l.cqMu.Lock()
	l.cq = append(l.cq, cqe)
	l.cqMu.Unlock()
	l.nCQ.Add(1)
	if w := l.work; w != nil {
		w.Add(1)
	}
}

// Parking is the consumer's half of the doorbell handshake
// (nic.Parker), called by the owning stream's wait loop between its
// last empty pass and its sleep. Producers in this process wake the
// sleeper through the bound work counter; producers in other processes
// only see the rings, so the waiter tells them there: it zeroes its
// poll stamp in every inbound ring — "ring me" — and then re-checks
// those rings. A cell published before the zero is seen here (false:
// poll again); one published after reads the zero and rings the
// watcher, whose delivery wakes the sleeper. The next poll re-stamps.
func (l *Link) Parking() bool {
	n := l.net
	if n.bell == nil || n.closed.Load() {
		return true // no watcher to ring: the sleep is timer-bounded
	}
	n.stampDue.Store(true)
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		if r := p.rx; r != nil {
			r.pollStamp.Store(0)
		}
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		if r := p.rx; r != nil && !r.empty() {
			return false
		}
	}
	return true
}

// UseMetrics wires the transport's doorbell counters to the registry
// (shm.bells_rung, shm.bells_suppressed); the first wired link
// registers them, scope is unused — they are transport-wide.
func (l *Link) UseMetrics(reg *metrics.Registry, scope string) {
	if reg == nil || l.net.met.Load() != nil {
		return
	}
	l.net.met.CompareAndSwap(nil, &netMetrics{
		bellsRung:       reg.Counter("shm.bells_rung"),
		bellsSuppressed: reg.Counter("shm.bells_suppressed"),
	})
}

// DrainCQ moves up to cap(buf) completions into buf[:0] (nic.Link).
func (l *Link) DrainCQ(buf []nic.CQE) []nic.CQE {
	buf = buf[:0]
	if l.nCQ.Load() == 0 || cap(buf) == 0 {
		return buf
	}
	l.cqMu.Lock()
	n := len(l.cq)
	if c := cap(buf); n > c {
		n = c
	}
	buf = append(buf, l.cq[:n]...)
	rest := copy(l.cq, l.cq[n:])
	for i := rest; i < len(l.cq); i++ {
		l.cq[i] = nic.CQE{}
	}
	l.cq = l.cq[:rest]
	l.cqMu.Unlock()
	l.nCQ.Add(-int64(n))
	if w := l.work; w != nil {
		w.Add(-n)
	}
	return buf
}

// DrainRQ moves up to cap(buf) arrived packets into buf[:0] (nic.Link).
func (l *Link) DrainRQ(buf []fabric.Packet) []fabric.Packet {
	buf = buf[:0]
	if l.nRQ.Load() == 0 || cap(buf) == 0 {
		return buf
	}
	l.rqMu.Lock()
	n := len(l.rq)
	if c := cap(buf); n > c {
		n = c
	}
	buf = append(buf, l.rq[:n]...)
	rest := copy(l.rq, l.rq[n:])
	for i := rest; i < len(l.rq); i++ {
		l.rq[i] = fabric.Packet{}
	}
	l.rq = l.rq[:rest]
	l.rqMu.Unlock()
	l.nRQ.Add(-int64(n))
	if w := l.work; w != nil {
		w.Add(-n)
	}
	return buf
}

// QueuedCQ returns unpolled completions (one atomic load).
func (l *Link) QueuedCQ() int { return int(l.nCQ.Load()) }

// QueuedRQ returns unpolled arrivals (one atomic load).
func (l *Link) QueuedRQ() int { return int(l.nRQ.Load()) }
