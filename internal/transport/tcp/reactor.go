package tcp

import "time"

const (
	// drainBudget bounds the bytes one drain ingests from one
	// connection before it lets go of the connection's lock, so a
	// firehose connection cannot keep a poll, or the other drainer,
	// out for long.
	drainBudget = 1 << 20
	// sweepPeriod is the cadence of the safety net that flushes output
	// stranded by a rank that posted and stopped progressing.
	sweepPeriod = time.Millisecond
	// probeEvery caps the widening gap between two probes of a silent
	// connection (see Link.PollRecv).
	probeEvery = 64
	// flushBytes is the adaptive-batching budget: a post that brings a
	// peer's coalesced backlog past it flushes inline instead of waiting
	// for the next progress pass.
	flushBytes = 128 << 10
)

// runConn is the per-connection goroutine: it picks the readiness
// watcher when the platform exposes a raw descriptor and the blocking
// read driver otherwise, then hands the exit cause to connLost: the
// loss is the peer's verdict.
func (n *Network) runConn(cs *connState) {
	var cause error
	defer n.wg.Done()
	defer func() { n.connLost(cs.rank, cause) }()
	defer n.untrack(cs)
	defer cs.release()
	defer cs.conn.Close()
	if cs.nb != nil {
		cause = n.watchConn(cs)
	} else {
		cause = n.blockingReadLoop(cs)
	}
}

// watchConn is the readiness watcher: it reads its connection dry —
// bounded non-blocking drains, exactly what a caller-thread poll does —
// then parks in the runtime netpoller until the socket is readable
// again, as shm's doorbell watcher drains the rings a bell announces.
// Frames it completes land in their links' receive queues, and that
// push is what wakes a waiter parked on the destination link's stream.
// It is what keeps ingest live when no MPI thread polls: a rank that
// posted and went computing, a writer blocked in writev whose peer
// must drain for it to finish. It takes the connection's lock and waits
// for it: the only other holders are bounded non-blocking drains, and
// nothing here waits for a stream lock or a peer's write lock, so
// socket ingest cannot stall behind a blocked writer.
func (n *Network) watchConn(cs *connState) error {
	// Drain before the first park: the netpoller is edge-triggered, and
	// payload that rode into the kernel buffer alongside the hello has
	// already had its readiness edge consumed by the accept loop's
	// blocking hello read — parking first would wait for an edge that
	// never comes.
	for {
		cs.mu.Lock()
		made := n.drainConn(cs, false)
		cs.mu.Unlock()
		if made {
			n.poolDrains.Add(1)
			if met := n.metricsRef(); met != nil {
				met.poolDrains.Inc()
			}
		}
		if cs.dead.Load() {
			return cs.takeCause(nil)
		}
		// A drain that stopped at its budget left bytes behind: the
		// park's look (nbConn.wfn) sees them and returns at once.
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

// sweeper is the 1ms safety net for output: it flushes per-peer queues
// stranded by posts with no progress call after them.
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
		}
	}
}

// PollRecv is the reactor on the caller's thread: MPI progress calls
// it at the top of every netmod pass and it looks at every
// connection. Input may be there whether or not its watcher has woken:
// the watcher learns of it from the runtime's netpoller, which runs
// when a P has nothing else to do, and ranks that yield to each other
// on one core never leave it idle. So a connection is probed with
// non-blocking reads at a widening cadence (probeDue): input is found
// within twice the time it took to arrive, a connection silent for n
// looks costs O(log n) + n/probeEvery system calls, and every other
// look costs two atomic operations per connection. A connection whose
// lock another drainer holds is skipped: that drainer reads it.
// It reports whether anything was delivered (to any link — frames for
// other VCIs land in their queues and bump their work counters).
func (l *Link) PollRecv() (made bool) {
	n := l.net
	for _, cs := range n.connList() {
		if cs.nb == nil || cs.dead.Load() {
			continue // blocking-driver conns feed themselves
		}
		if !probeDue(cs.looks.Add(1)) || !cs.mu.TryLock() {
			continue
		}
		if n.drainConn(cs, true) {
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
// sleep. A watcher's drain wakes the sleeper through the destination
// link's work counter, but the watcher hears of input only when the
// runtime visits its netpoller, and a P that other goroutines keep
// busy — ranks sharing the core — does not. The pass before this call
// looked on the cadence, which after parkAfter empty looks means it
// most likely did not read; so the waiter reads here, once per
// connection it can lock, and reports false when frames came of it
// (poll again). A sleeper whose timer ends the park comes back through
// here, which bounds what input can wait for a parked rank at one
// parkCap whatever the cadence has widened to, for one read per
// connection and park.
func (l *Link) Parking() bool {
	n := l.net
	sleep := true
	for _, cs := range n.connList() {
		if cs.nb == nil || cs.dead.Load() || !cs.mu.TryLock() {
			continue // a connection another drainer holds is read by it
		}
		if n.drainConn(cs, true) {
			sleep = false
		}
		cs.mu.Unlock()
	}
	return sleep
}
