package tcp

import (
	"errors"
	"time"
)

const (
	// reactorBudget bounds the bytes one pool drain ingests before
	// requeueing, so a firehose connection cannot starve the rest.
	reactorBudget = 256 << 10
	// pollBudget bounds the bytes one caller-thread progress poll
	// ingests per connection.
	pollBudget = 1 << 20
	// pollLiveWindow: when a progress poll ran this recently, watchers
	// skip the pool hand-off — the caller's thread will drain the
	// socket on its next pass, which is the fast path.
	pollLiveWindow = int64(time.Millisecond)
	// sweepPeriod is the background safety-net cadence: stranded
	// output flushes and stranded readiness hand-offs.
	sweepPeriod = time.Millisecond
)

// runConn is the per-connection goroutine: it picks the readiness
// watcher when the platform exposes a raw descriptor and the blocking
// read driver otherwise, then funnels the exit cause into the same
// connLost → redial → verdict machinery the old readLoop used.
func (n *Network) runConn(cs *connState) {
	var cause error
	defer n.wg.Done()
	defer func() { n.connLost(cs.rank, cs.conn, cause) }()
	defer n.untrack(cs)
	defer cs.release()
	defer cs.conn.Close()
	if cs.nb != nil {
		cause = n.watchConn(cs)
	} else {
		cause = n.blockingReadLoop(cs)
	}
}

// watchConn is the readiness watcher: park in the runtime netpoller
// until the socket is readable, flag the connection ready (bumping the
// progress work counters), and wait for some drain — a caller-thread
// progress poll, or the bounded pool when no poller is live — to read
// it dry. The watcher itself never reads payload bytes; all processing
// happens on draining threads.
func (n *Network) watchConn(cs *connState) error {
	// Drain before the first park: the netpoller is edge-triggered, and
	// payload that rode into the kernel buffer alongside the hello has
	// already had its readiness edge consumed by the accept loop's
	// blocking hello read — parking first would wait for an edge that
	// never comes.
	cs.mu.Lock()
	n.drainConn(cs, reactorBudget)
	cs.mu.Unlock()
	if cs.dead.Load() {
		return cs.takeCause(nil)
	}
	for {
		if err := cs.nb.waitReadable(); err != nil {
			return cs.takeCause(err)
		}
		if cs.dead.Load() || n.isClosed() {
			return cs.takeCause(nil)
		}
		n.reactorWakeups.Add(1)
		if met := n.metricsRef(); met != nil {
			met.wakeups.Inc()
		}
		cs.markReady()
		if !n.pollersLive() {
			n.poolEnqueue(cs)
		}
		select {
		case <-cs.drained:
		case <-n.closeCh:
			return cs.takeCause(errors.New("tcp: transport closed"))
		}
		if cs.dead.Load() {
			return cs.takeCause(nil)
		}
	}
}

// blockingReadLoop drives connections without a raw descriptor
// (in-memory pipes, non-unix platforms): classic blocking reads into
// the same in-place parser. It holds cs.mu across the read, which is
// fine — reactor polls skip connections without an nbConn.
func (n *Network) blockingReadLoop(cs *connState) error {
	for {
		cs.mu.Lock()
		buf := cs.rx.Target(1)
		cs.mu.Unlock()
		nr, err := cs.conn.Read(buf)
		cs.mu.Lock()
		if nr > 0 {
			cs.ingest(nr)
		}
		dead := cs.dead.Load()
		cs.mu.Unlock()
		if dead || err != nil {
			return cs.takeCause(err)
		}
	}
}

// pollersLive reports whether a caller-thread progress poll ran within
// the live window — if so, readiness hand-offs to the pool are skipped
// and ingest stays on the MPI threads (the paper's progress path).
func (n *Network) pollersLive() bool {
	last := n.lastPollNS.Load()
	return last != 0 && time.Now().UnixNano()-last < pollLiveWindow
}

// poolEnqueue hands a ready connection to the drain pool, deduplicated
// by the queued flag; a full queue drops the hand-off (the sweeper
// retries every millisecond).
func (n *Network) poolEnqueue(cs *connState) {
	if cs.queued.Swap(true) {
		return
	}
	select {
	case n.poolQ <- cs:
	default:
		cs.queued.Store(false)
	}
}

// poolWorker is one bounded reactor-pool goroutine: it guarantees read
// liveness when no MPI thread is polling (a rank that posted and went
// computing, a blocked writer needing its peer to drain). Workers only
// read — they never touch peer write locks — so socket ingest can
// never deadlock behind a blocked writev.
func (n *Network) poolWorker() {
	defer n.wg.Done()
	for {
		select {
		case <-n.closeCh:
			return
		case cs := <-n.poolQ:
			cs.queued.Store(false)
			if cs.mu.TryLock() {
				n.poolDrains.Add(1)
				if met := n.metricsRef(); met != nil {
					met.poolDrains.Inc()
				}
				n.drainConn(cs, reactorBudget)
				cs.mu.Unlock()
			}
			// Budget exhausted, or lost the lock race while data
			// remains: hand it back rather than spinning here.
			if cs.ready.Load() && !cs.dead.Load() && !n.pollersLive() {
				n.poolEnqueue(cs)
			}
		}
	}
}

// sweeper is the 1ms safety net replacing the old flushLoop: it
// flushes stranded per-peer output (posts with no subsequent progress
// call) and re-offers stranded ready connections to the drain pool
// (watcher hand-offs dropped on a full queue, pollers that went
// quiet).
func (n *Network) sweeper() {
	defer n.wg.Done()
	t := time.NewTicker(sweepPeriod)
	defer t.Stop()
	for {
		select {
		case <-n.closeCh:
			return
		case <-t.C:
			for _, p := range n.peers {
				if p != nil {
					n.flushPeer(p)
				}
			}
			if n.readyConns.Load() > 0 && !n.pollersLive() {
				for _, cs := range n.connList() {
					if cs.ready.Load() && !cs.dead.Load() {
						n.poolEnqueue(cs)
					}
				}
			}
		}
	}
}

// PollRecv drains every reactor connection on the caller's thread
// (nic.RxPoller): bounded non-blocking reads feeding the in-place
// frame parser, so inbound traffic is processed by MPI progress
// itself. The MPI netmod calls it at the top of its poll; it reports
// whether anything was delivered (to any link — frames for other VCIs
// land in their queues and bump their work counters).
func (l *Link) PollRecv() (made bool) {
	n := l.net
	n.lastPollNS.Store(time.Now().UnixNano())
	for _, cs := range n.connList() {
		if cs.nb == nil || cs.dead.Load() {
			continue // blocking-driver conns feed themselves
		}
		if !cs.mu.TryLock() {
			continue // another drainer owns it; it will clear readiness
		}
		if n.drainConn(cs, pollBudget) {
			made = true
		}
		cs.mu.Unlock()
	}
	return made
}
