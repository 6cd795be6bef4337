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
	// sweepPeriod is the background safety-net cadence: stranded
	// output flushes, stranded readiness hand-offs, and the sample of
	// the poll sequence number that decides whether pollers are live.
	sweepPeriod = time.Millisecond
	// probeEvery caps the widening gap between two probes of a silent
	// connection (see Link.PollRecv).
	probeEvery = 64
	// poolWorkers sizes the bounded drain pool that keeps socket ingest
	// live when no MPI thread is polling; Start caps it at GOMAXPROCS.
	poolWorkers = 2
	// flushBytes is the adaptive-batching budget: a post that brings a
	// peer's coalesced backlog past it flushes inline instead of waiting
	// for the next progress pass.
	flushBytes = 128 << 10
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
	n.drainConn(cs, reactorBudget, false)
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

// pollersLive reports whether a caller-thread progress poll ran during
// the sweeper's last period — if so, readiness hand-offs to the pool
// are skipped and ingest stays on the MPI threads (the paper's progress
// path): the caller's thread will drain the socket on its next pass.
// Before the sweeper's first sample the answer is no: a hand-off nobody
// needed costs a TryLock, one nobody made strands the input.
func (n *Network) pollersLive() bool { return n.pollLive.Load() }

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
				n.drainConn(cs, reactorBudget, false)
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
// quiet). Its tick is also the clock of pollersLive: pollers are live
// when the poll sequence number moved since the previous tick, which
// costs a poll one atomic add and no clock read. The first sample is
// taken here, not assumed zero: polls made while the transport started
// say nothing about the period that follows.
func (n *Network) sweeper() {
	defer n.wg.Done()
	t := time.NewTicker(sweepPeriod)
	defer t.Stop()
	lastSeq := n.pollSeq.Load()
	for {
		select {
		case <-n.closeCh:
			return
		case <-t.C:
			seq := n.pollSeq.Load()
			n.pollLive.Store(seq != lastSeq)
			lastSeq = seq
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

// PollRecv is the reactor on the caller's thread: MPI progress calls
// it at the top of every netmod pass and it looks at every
// connection. One a watcher has flagged ready is drained — bounded
// non-blocking reads feeding the in-place frame parser. One nobody
// has flagged may still have input: the watchers learn of it from the
// runtime's netpoller, which runs when a P has nothing else to do,
// and ranks that yield to each other on one core never leave it idle.
// So an unflagged connection is probed with one non-blocking read at
// a widening cadence (probeDue): input is found within twice the time
// it took to arrive, a connection silent for n looks costs O(log n) +
// n/probeEvery system calls, and every other look costs three atomic
// operations per connection.
// It reports whether anything was delivered (to any link — frames for
// other VCIs land in their queues and bump their work counters).
func (l *Link) PollRecv() (made bool) {
	n := l.net
	n.pollSeq.Add(1)
	for _, cs := range n.connList() {
		if cs.nb == nil || cs.dead.Load() {
			continue // blocking-driver conns feed themselves
		}
		probe := !cs.ready.Load()
		if probe {
			if !probeDue(cs.looks.Add(1)) {
				continue
			}
		}
		if !cs.mu.TryLock() {
			continue // another drainer owns it; it will clear readiness
		}
		if n.drainConn(cs, pollBudget, probe) {
			made = true
		}
		cs.mu.Unlock()
	}
	return made
}

// probeDue reports whether a connection's k-th look since it last gave
// bytes is one that reads: the first, those 1, 2, 4, 8 … looks after
// the first (the 2nd, 3rd, 5th, 9th …), and every multiple of
// probeEvery. The gaps double from the first look, not from the hit,
// because the first look comes before the waiter has yielded to
// anybody: with reads on looks 2, 4, 8 … two ranks in step on one core
// lock into finding each message on look 2^k, each late answer reaching
// the other just after its look 2^(k-1), and stay there.
func probeDue(k uint32) bool {
	g := k - 1
	return g&(g-1) == 0 || k%probeEvery == 0
}

// Parking is the reactor's half of the park handshake, called by the
// owning stream's wait loop between its last empty pass and its
// sleep. A watcher's flag wakes the sleeper through the bound work
// counter, but the watcher hears of input only when the runtime
// visits its netpoller, and a P that other goroutines keep busy —
// ranks sharing the core — does not. The pass before this call looked
// on the cadence, which after parkAfter empty looks means it most
// likely did not read; so the waiter reads here, once per unflagged
// connection, and reports false when frames came of it (poll again).
// A sleeper whose timer ends the park comes back through here, which
// bounds what input can wait for a parked rank at one parkCap
// whatever the cadence has widened to, for one read per connection
// and park.
func (l *Link) Parking() bool {
	n := l.net
	sleep := true
	for _, cs := range n.connList() {
		if cs.nb == nil || cs.dead.Load() || cs.ready.Load() {
			continue // a flag's bump has poked the sleeper already
		}
		if !cs.mu.TryLock() {
			continue
		}
		if n.drainConn(cs, pollBudget, true) {
			sleep = false
		}
		cs.mu.Unlock()
	}
	return sleep
}
