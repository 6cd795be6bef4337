package shm

import (
	"fmt"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/transport/framing"
)

// Link is one VCI's endpoint on the shared-memory transport
// (nic.Link). Posts append frames to the destination peer's coalescing
// queue and pump inline while ring cells are free; a full ring parks
// the tail for Flush — invoked by the owning stream's progress via the
// SetArm callback — which is the sender-side-progress-driven chunking.
// The receive side is pure polling: PollRecv drains every inbound ring
// on the caller's thread. There is no kernel to interrupt us when a peer
// produces: the polling unit framing.Link parks on the stream's netmod
// counter keeps the class polled every pass, and an empty poll is two
// atomic loads per peer ring.
type Link struct {
	framing.Link
	net *Network
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
	if l.Closed() || l.net.closed.Load() {
		return errClosed
	}
	rank := l.net.RankOfEndpoint(dst)
	if rank == l.net.cfg.Rank {
		return l.Loopback(dst, payload, bytes, token, signaled)
	}
	p := l.net.peers[rank]
	if p == nil {
		return fmt.Errorf("shm: endpoint %d (rank %d) not reachable over shared memory", dst, rank)
	}
	p.Mu.Lock()
	queued, err := p.Post(&l.Link, dst, payload, bytes, token, signaled)
	if !queued {
		p.Mu.Unlock()
		return err
	}
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
		l.net.pumpPeerLocked(p)
	}
	parked := p.Q.Pending() > 0
	p.Mu.Unlock()
	if parked {
		l.Kick()
	}
	return nil
}

// Flush pumps every peer's parked output into its transmit ring. It
// reports whether anything moved and whether this link disarmed
// (nothing of its own left pending).
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
	return made, l.Disarm(waiting)
}

// flushPeer pumps one peer's queue; waiting reports a still-parked
// tail (ring full).
func (n *Network) flushPeer(p *peer) (made, waiting bool) {
	p.Mu.Lock()
	if p.Refusal() != nil || p.tx == nil {
		p.Mu.Unlock()
		return false, false
	}
	if p.Q.Pending() == 0 {
		p.Mu.Unlock()
		return false, false
	}
	before := p.Q.Written()
	n.pumpPeerLocked(p)
	made = p.Q.Written() > before
	waiting = p.Q.Pending() > 0
	if waiting {
		// Output is parked behind a full ring. If its consumer stopped
		// polling after those cells were published, nobody was rung for
		// them: let ringOwed judge its stamp again on every such pass, so
		// that the watcher drains the ring of a rank that went computing.
		p.bellBacklog.Store(true)
	}
	p.Mu.Unlock()
	return made, waiting
}

// pumpPeerLocked pushes queued bytes into the transmit ring and
// settles the frames the watermark passed. Caller holds p.Mu.
func (n *Network) pumpPeerLocked(p *peer) {
	if p.tx == nil {
		return
	}
	tailBefore := p.tx.tail.Load()
	before := p.Q.Written()
	if p.Q.PumpTo(p.tx) {
		n.txChunks.Add(uint64((p.Q.Written() - before + int64(p.tx.cellPayload) - 1) / int64(p.tx.cellPayload)))
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
	p.Settle()
}

// ringPeerLocked writes one wakeup byte into the peer's doorbell FIFO,
// lazily opening the write side. Caller holds p.Mu. Steady traffic
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

// PollRecv drains every inbound ring on the caller's thread and runs
// the gated liveness sweep. Reports whether any frame was delivered.
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
		p.Mu.Lock()
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
		p.Mu.Unlock()
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
		if k := p.stream.Write(chunk); k > 0 {
			n.rxFrames.Add(uint64(k))
			made = true
		}
		r.advance()
		n.rxChunks.Add(1)
	}
	p.stream.Flush()
	// Goodbye is honored only once the stream has fully drained, so
	// every frame published before the marker still delivers.
	if !p.gone.Load() && p.stream.Idle() && r.empty() && r.departed() {
		p.gone.Store(true)
		n.markDeparted(p)
	}
	return made
}

// reject is the receive stream's fault policy. A frame for an endpoint
// nobody registered is counted and skipped. Frame corruption in a
// shared segment is unrecoverable for the byte stream (there is no
// resync point), so it fails the peer. Runs under p.rxMu.
func (n *Network) reject(p *peer, f framing.Fault) (skip bool) {
	if f.Kind == framing.UnknownEndpoint {
		n.rxUnknownEP.Add(1)
		return true
	}
	n.rxCorrupt.Add(1)
	n.verdict(p, fmt.Errorf("shm: rank %d stream corrupt: %v", p.rank, f))
	return false
}

// Parking is the consumer's half of the doorbell handshake, called by
// the owning stream's wait loop between its last empty pass and its
// sleep. Producers in this process wake the sleeper through the bound
// work counter; producers in other processes only see the rings, so
// the waiter tells them there: it zeroes its poll stamp in every
// inbound ring — "ring me" — and then re-checks those rings. A cell
// published before the zero is seen here (false: poll again); one
// published after reads the zero and rings the watcher, whose
// delivery wakes the sleeper. The next poll re-stamps.
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

// UseMetrics wires the transport's doorbell counters (shm.bells_rung,
// shm.bells_suppressed), its streams' assembly counters (shm.rx.placed,
// shm.rx.staged) and its cross-memory counters (shm.rx.cma reads,
// shm.rx.cma_bytes, shm.rx.cma_refused peers) to the registry; the
// first wired link registers them, scope is unused — they are
// transport-wide.
func (l *Link) UseMetrics(reg *metrics.Registry, scope string) {
	if reg == nil || l.net.met.Load() != nil {
		return
	}
	l.net.tab.UseMetrics(reg, "shm")
	l.net.met.CompareAndSwap(nil, &netMetrics{
		bellsRung:       reg.Counter("shm.bells_rung"),
		bellsSuppressed: reg.Counter("shm.bells_suppressed"),
		cmaReads:        reg.Counter("shm.rx.cma"),
		cmaBytes:        reg.Counter("shm.rx.cma_bytes"),
		cmaRefused:      reg.Counter("shm.rx.cma_refused"),
	})
}
