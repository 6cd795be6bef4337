// Package shm is the intra-node transport: per-pair single-producer/
// single-consumer cell rings in mmap'd file-backed segments
// (DESIGN.md §12). Posts coalesce frames into the
// cumulative-watermark queue the TCP transport also uses
// (framing.Queue, DESIGN.md §11) and sender-side progress pumps the
// byte stream into free ring cells, chunking large messages across
// cells — "written" means "published into the shared ring", the shm
// analogue of kernel-accepted bytes; the receiver reassembles frames
// on its own progress thread in Link.PollRecv. Liveness rides flock:
// each rank holds an exclusive advisory lock on its alive file, so
// peer death is detected — and converted into the same
// PeerDown-verdict-before-failed-frames CQE ordering the TCP
// transport guarantees — by one non-blocking lock probe, with
// kernel-accurate semantics under SIGKILL.
package shm

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/timing"
	"gompix/internal/transport/framing"
)

// Config parameterizes one rank's shared-memory transport.
type Config struct {
	Rank      int
	WorldSize int
	// Epoch namespaces the segment directory; all ranks of one job
	// must agree (mpixrun stamps it into GOMPIX_EPOCH).
	Epoch uint64
	// Dir overrides the segment parent directory (default /dev/shm,
	// falling back to the temp dir). Tests point it at t.TempDir().
	Dir string
	// Peers lists the ranks reachable over shared memory (the
	// composite transport passes the same-node subset). nil means
	// every other rank.
	Peers []int
	// Cells and CellPayload set the per-ring geometry; zero selects
	// the defaults (256 cells × 4096 bytes).
	Cells       int
	CellPayload int
	// ProbeInterval is the liveness-probe cadence (default 500µs).
	ProbeInterval time.Duration
	// StaleAfter is the minimum age before a sibling job directory
	// with no live members is reclaimed at startup (default 1 minute).
	StaleAfter time.Duration
}

const (
	defaultCells       = 256
	defaultCellPayload = 4096
	defaultProbe       = 500 * time.Microsecond

	// pollStampWindow is how recent a consumer's poll stamp must be for
	// its producers to skip the doorbell: a consumer that polled this
	// recently is taken to be ingesting on its own threads. stampEvery
	// is the poll cadence of the clock read that refreshes it.
	pollStampWindow = time.Millisecond
	stampEvery      = 16

	// maxFrame bounds a parsed frame length; anything larger is
	// corruption (shared memory scribbled on), which is unrecoverable
	// for a byte stream and fails the peer.
	maxFrame = 64 << 20
)

var (
	errClosed = errors.New("shm: transport closed")
)

// peer is the per-remote-rank state: the pending output queue and the
// peer's verdict (framing.Peer) with the transmit ring this rank
// produces, the receive ring it consumes with the stream that parses
// it, plus the liveness-probe handle.
type peer struct {
	// Mu guards the tx side.
	framing.Peer
	rank  int
	tx    *ring
	txMem []byte

	// rxMu guards the rx side (the drain path).
	rxMu   sync.Mutex
	rx     *ring
	rxMem  []byte
	stream framing.Stream // the byte stream the rx ring's cells carry
	gone   atomic.Bool    // rx side observed goodbye (drained) — mirror of the departure

	// probe is the lazily opened handle on the peer's alive file;
	// probeMu serializes overlapping liveness sweeps, probeDead (under
	// Mu) latches a delivered death so the sweep stops re-probing.
	probeMu   sync.Mutex
	probe     *os.File
	probeDead bool

	// bellFd is the lazily opened write side of the peer's doorbell
	// FIFO (under Mu): -1 not yet open (retry), bellClosed never retry.
	bellFd int

	// bellOwed marks an empty→nonempty ring transition, bellBacklog a
	// flush pass that left output parked behind a full ring: the two
	// reasons the consumer may need its doorbell rung. Pumps record the
	// debt instead of ringing inline — the FIFO write makes the peer
	// runnable, and on an oversubscribed core the kernel's wakeup
	// preemption would kick the producer off mid-burst — and the next
	// ringOwed settles it against the consumer's poll stamp: a consumer
	// that is polling is not rung at all.
	bellOwed    atomic.Bool
	bellBacklog atomic.Bool

	// cma is the pair's cross-memory verdict (cmaUnknown until the
	// first PeerReader call that finds the peer's probe record),
	// reader the verified reader; cmaMu serializes the probe.
	cmaMu  sync.Mutex
	cma    atomic.Int32
	reader peerReader
}

// Network is one rank's shared-memory transport instance
// (transport.Transport).
type Network struct {
	// Space is the endpoint space (EndpointOf, RankOfEndpoint): the one
	// formula every byte transport shares, which is what lets the
	// composite transport route one endpoint space across both.
	framing.Space

	cfg Config
	dir string
	tab *framing.Table // codec, clock, link registry
	// wallNow reads the wall clock poll stamps are written and judged
	// on (UnixNano: the one clock every process of the job shares).
	wallNow func() int64

	jobLock *os.File
	alive   *os.File
	// probeWord is the word this rank's probe record points peers at
	// (probeValue): heap memory, which does not move, kept alive here.
	probeWord *uint64

	// bell is this rank's doorbell FIFO (read side parked on by the
	// watcher goroutine); nil when the filesystem can't host FIFOs.
	bell    *os.File
	watcher sync.WaitGroup
	started atomic.Bool

	mu     sync.Mutex
	closed atomic.Bool

	peers []*peer // indexed by rank; nil at self and non-shm ranks

	lastProbe atomic.Int64  // UnixNano of the last liveness sweep
	pollTicks atomic.Uint32 // PollRecv pass counter gating the clock read
	stampDue  atomic.Bool   // a park zeroed the stamps: the next poll re-stamps

	met atomic.Pointer[netMetrics]

	// counters (Stats)
	txChunks    atomic.Uint64
	rxChunks    atomic.Uint64
	rxFrames    atomic.Uint64
	rxCorrupt   atomic.Uint64
	rxUnknownEP atomic.Uint64
	peersDown   atomic.Uint64
	bellsRung   atomic.Uint64
	bellsSupp   atomic.Uint64
	cmaReads    atomic.Uint64
	cmaBytes    atomic.Uint64
	cmaRefused  atomic.Uint64
	reclaimed   int
}

// netMetrics is the registry wiring of the doorbell path and of the
// cross-memory reads.
type netMetrics struct {
	bellsRung, bellsSuppressed     *metrics.Counter
	cmaReads, cmaBytes, cmaRefused *metrics.Counter
}

// Stats is a snapshot of the transport counters.
type Stats struct {
	TxChunks         uint64
	RxChunks         uint64
	RxFrames         uint64
	CorruptFrames    uint64
	UnknownEndpoints uint64
	PeersDown        uint64
	BellsRung        uint64
	// BellsSuppressed counts ring transitions whose doorbell write was
	// skipped because the consumer's poll stamp was live.
	BellsSuppressed uint64
	// CMAReads and CMABytes count the reads of peers' memory and the
	// bytes they moved; CMARefused counts peers whose probe failed.
	CMAReads      uint64
	CMABytes      uint64
	CMARefused    uint64
	ReclaimedDirs int
}

// New builds the transport: reclaims stale sibling job directories,
// joins this job's segment directory, claims the rank's alive lock,
// and maps one ring per direction per peer. Everything is idempotent
// against the peer doing the same concurrently.
func New(cfg Config) (*Network, error) {
	if !Supported() {
		return nil, fmt.Errorf("shm: %s", "mmap transport not supported on this platform")
	}
	if cfg.WorldSize <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.WorldSize {
		return nil, fmt.Errorf("shm: bad rank/world %d/%d", cfg.Rank, cfg.WorldSize)
	}
	if cfg.Cells <= 0 {
		cfg.Cells = defaultCells
	}
	if cfg.CellPayload <= 0 {
		cfg.CellPayload = defaultCellPayload
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbe
	}
	base := baseDir(cfg.Dir)
	dir := jobDir(base, cfg.Epoch)
	n := &Network{
		Space:   framing.Space(cfg.WorldSize),
		cfg:     cfg,
		dir:     dir,
		tab:     framing.NewTable(),
		wallNow: func() int64 { return time.Now().UnixNano() },
		peers:   make([]*peer, cfg.WorldSize),
	}
	n.stampDue.Store(true) // at rest until the first poll, which stamps
	n.reclaimed = reclaimStale(base, dir, cfg.StaleAfter)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	var err error
	if n.jobLock, err = joinJob(dir); err != nil {
		return nil, err
	}
	if n.alive, err = claimAlive(dir, cfg.Rank); err != nil {
		n.jobLock.Close()
		return nil, err
	}
	n.probeWord = new(uint64)
	*n.probeWord = probeValue(cfg.Epoch, cfg.Rank)
	if err = publishProbe(n.alive, n.probeWord); err != nil {
		n.alive.Close()
		n.jobLock.Close()
		return nil, fmt.Errorf("shm: probe record: %w", err)
	}
	ranks := cfg.Peers
	if ranks == nil {
		for r := 0; r < cfg.WorldSize; r++ {
			if r != cfg.Rank {
				ranks = append(ranks, r)
			}
		}
	}
	for _, r := range ranks {
		if r == cfg.Rank || r < 0 || r >= cfg.WorldSize {
			continue
		}
		p := &peer{rank: r, bellFd: -1}
		p.stream.Init(n.tab, nil, maxFrame, func(f framing.Fault) bool { return n.reject(p, f) })
		p.stream.From(n.Space, r)
		if p.txMem, err = openRingFile(dir, cfg.Rank, r, cfg.Cells, cfg.CellPayload); err == nil {
			p.tx, err = openRing(p.txMem, cfg.Cells, cfg.CellPayload)
		}
		if err == nil {
			if p.rxMem, err = openRingFile(dir, r, cfg.Rank, cfg.Cells, cfg.CellPayload); err == nil {
				p.rx, err = openRing(p.rxMem, cfg.Cells, cfg.CellPayload)
			}
		}
		if err != nil {
			n.teardownMaps()
			n.alive.Close()
			n.jobLock.Close()
			return nil, fmt.Errorf("shm: rank %d↔%d rings: %w", cfg.Rank, r, err)
		}
		n.peers[r] = p
	}
	// The doorbell FIFO is created here so peers that finish their own
	// setup first have something to ring — but the watcher goroutine
	// that drains on those rings does not start until Start. Inbound
	// delivery touches the codec and the links' work counters, which
	// the MPI layer installs after New; a watcher launched here would
	// race that wiring (a fast peer's first frame can arrive while this
	// rank is still inside NewWorld). Rings from the dormant window
	// buffer in the FIFO and are drained by the watcher's first read.
	n.bell = createDoorbell(dir, cfg.Rank)
	return n, nil
}

// Start launches the doorbell watcher — the one background goroutine,
// parked in the netpoller on the rank's FIFO (the same shape as a TCP
// connection watcher). It exists so a producer's wakeup byte
// reschedules an idle receiver immediately instead of after a full
// timer tick; without FIFO support the transport still works, receive
// latency just degrades to the poll cadence. Call only after the
// codec is set and the local links are bound: the watcher delivers
// frames into them.
func (n *Network) Start() error {
	if n.started.Swap(true) || n.bell == nil {
		return nil
	}
	n.watcher.Add(1)
	go n.watchBell()
	return nil
}

// watchBell drains every inbound ring each time a peer rings this
// rank's doorbell. Frames delivered here land in the links' receive
// queues and bump their work counters, exactly as a caller-thread
// PollRecv would; the parked read is what turns a peer's publish into
// a kernel wakeup of this process.
func (n *Network) watchBell() {
	defer n.watcher.Done()
	buf := make([]byte, 64)
	for {
		if _, err := n.bell.Read(buf); err != nil {
			return // closed by shutdown
		}
		// Drain until every ring reads empty, not one snapshot of each: a
		// producer that finds unconsumed cells ahead of its publish does
		// not ring (see pumpPeerLocked), on the understanding that
		// whoever is draining them will see the new ones too.
		for again := true; again && !n.closed.Load(); {
			again = false
			for _, p := range n.peers {
				if p == nil {
					continue
				}
				p.rxMu.Lock()
				n.drainPeerLocked(p)
				if p.rx != nil && !p.rx.empty() {
					again = true
				}
				p.rxMu.Unlock()
			}
		}
	}
}

// Dir returns the job's segment directory (test hook).
func (n *Network) Dir() string { return n.dir }

// Stats returns a counter snapshot.
func (n *Network) Stats() Stats {
	return Stats{
		TxChunks:         n.txChunks.Load(),
		RxChunks:         n.rxChunks.Load(),
		RxFrames:         n.rxFrames.Load(),
		CorruptFrames:    n.rxCorrupt.Load(),
		UnknownEndpoints: n.rxUnknownEP.Load(),
		PeersDown:        n.peersDown.Load(),
		BellsRung:        n.bellsRung.Load(),
		BellsSuppressed:  n.bellsSupp.Load(),
		CMAReads:         n.cmaReads.Load(),
		CMABytes:         n.cmaBytes.Load(),
		CMARefused:       n.cmaRefused.Load(),
		ReclaimedDirs:    n.reclaimed,
	}
}

// SetCodec installs the frame codec.
func (n *Network) SetCodec(c nic.Codec) { n.tab.SetCodec(c) }

// SetClock installs the completion clock.
func (n *Network) SetClock(c timing.Clock) { n.tab.SetClock(c) }

// NodeOf returns rank: the transport knows no placement, so every rank
// is its own node.
func (n *Network) NodeOf(rank int) int { return rank }

// Multiprocess reports true: ranks are separate OS processes.
func (n *Network) Multiprocess() bool { return true }

// AddLink registers the link for a local VCI.
func (n *Network) AddLink(rank, vci int) (nic.Link, error) {
	if rank != n.cfg.Rank {
		return nil, fmt.Errorf("shm: AddLink for rank %d on rank %d's transport", rank, n.cfg.Rank)
	}
	l := &Link{net: n}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, errClosed
	}
	if err := n.tab.Register(&l.Link, n.EndpointOf(rank, vci)); err != nil {
		return nil, fmt.Errorf("shm: %w", err)
	}
	return l, nil
}

// Close is the graceful shutdown: pump what fits, publish the goodbye
// marker on every transmit ring, then unlink this rank's files — its
// transmit rings and alive token. Peers' mappings of the unlinked
// files stay valid, so in-flight frames still deliver; the last member
// out removes the whole directory.
func (n *Network) Close() error {
	n.shutdown(true)
	return nil
}

// Kill is Close without the goodbye or the unlinks — the abrupt-death
// test hook (SIGKILL shape): the alive lock drops, files stay behind,
// and peers must reach a verdict through the liveness probe.
func (n *Network) Kill() { n.shutdown(false) }

func (n *Network) shutdown(goodbye bool) {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		p.Mu.Lock()
		if goodbye && p.Refusal() == nil {
			p.Q.PumpTo(p.tx)
			p.tx.sayGoodbye()
			// Ring unconditionally so an idle peer notices the goodbye
			// marker (and any final frames) without waiting out a timer.
			n.ringPeerLocked(p)
		}
		frames := p.Q.TakeAll(nil)
		p.Mu.Unlock()
		n.tab.Fail(frames, errClosed)
	}
	// Stop the doorbell watcher before tearing down: closing the FIFO
	// unblocks its parked read. The rxMu discipline already makes its
	// drains safe against the unmap, but joining it here keeps shutdown
	// deterministic (no stray drain after Close returns).
	if n.bell != nil {
		n.bell.Close()
		n.watcher.Wait()
	}
	// Release the liveness token before unlinking so a probing peer
	// sees goodbye-marker-then-released, never released-without-marker.
	n.alive.Close()
	n.teardownMaps()
	if goodbye {
		for _, p := range n.peers {
			if p == nil {
				continue
			}
			os.Remove(ringPath(n.dir, n.cfg.Rank, p.rank))
		}
		os.Remove(alivePath(n.dir, n.cfg.Rank))
		os.Remove(bellPath(n.dir, n.cfg.Rank))
	}
	n.jobLock.Close()
	if goodbye {
		n.reapDir()
	}
}

// teardownMaps unmaps every ring under both peer locks (nothing can
// touch the mappings afterwards: posts and polls check closed first).
func (n *Network) teardownMaps() {
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		// Never nest the two peer locks here: the drain path acquires
		// rxMu then mu (failure verdicts from parse errors), so each
		// side tears down under its own lock.
		p.rxMu.Lock()
		munmap(p.rxMem)
		p.rx, p.rxMem = nil, nil
		p.stream.Release()
		p.rxMu.Unlock()
		p.Mu.Lock()
		munmap(p.txMem)
		p.tx, p.txMem = nil, nil
		closeBellFd(p.bellFd)
		p.bellFd = bellClosed
		p.Mu.Unlock()
		p.probeMu.Lock()
		if p.probe != nil {
			p.probe.Close()
			p.probe = nil
		}
		p.probeMu.Unlock()
	}
}

// reapDir removes the job directory if this was the last member out:
// the exclusive job lock is acquirable only when every shared holder
// has released it.
func (n *Network) reapDir() {
	lf, err := os.OpenFile(n.dir+"/"+jobLockName, os.O_RDWR, 0o600)
	if err != nil {
		return
	}
	if ok, err := flockEx(lf); err == nil && ok {
		os.RemoveAll(n.dir)
	}
	lf.Close()
}

// MarkPeerDown records a peer failure learned out-of-band (the
// composite transport cross-wires the TCP leg's verdict) so posts fail
// fast; queued frames fail, but no verdict CQE is fanned out here —
// the leg that reached the verdict already delivered it.
func (n *Network) MarkPeerDown(rank int, cause error) {
	if rank < 0 || rank >= len(n.peers) || n.peers[rank] == nil {
		return
	}
	p := n.peers[rank]
	p.Mu.Lock()
	frames, _ := p.Condemn(cause)
	p.Mu.Unlock()
	n.tab.Fail(frames, cause)
}

// verdict marks a peer permanently failed: the PeerDown control CQE
// fans out to every local link before any queued-frame failure CQE —
// the same ordering contract the TCP transport maintains (DESIGN.md
// §9.1; framing.Table.PeerDown keeps it) — unless the transport itself
// is closing, when the frames just fail. A peer that said goodbye gets
// no verdict.
func (n *Network) verdict(p *peer, cause error) {
	p.Mu.Lock()
	if p.Refusal() != nil {
		p.Mu.Unlock()
		return
	}
	frames, _ := p.Condemn(cause)
	p.Mu.Unlock()
	if n.closed.Load() {
		n.tab.Fail(frames, cause)
		return
	}
	n.peersDown.Add(1)
	n.tab.PeerDown(p.rank, cause, frames)
}

// markDeparted records a graceful goodbye: posts fail fast, queued
// frames fail, but no verdict fan-out — departure is not a fault.
func (n *Network) markDeparted(p *peer) {
	cause := fmt.Errorf("shm: rank %d departed", p.rank)
	p.Mu.Lock()
	if p.Refusal() != nil {
		p.Mu.Unlock()
		return
	}
	p.Depart(cause)
	frames := p.Q.TakeAll(nil)
	p.Mu.Unlock()
	n.tab.Fail(frames, cause)
}

// pollTick is the clocked tail of a caller-thread poll. A pass counter
// keeps even the clock read off the spin path (a progress loop polls
// thousands of times per millisecond, and on a virtualized host the
// vDSO clock is a measurable fraction of the whole pass): every
// stampEvery-th poll — and the first one after a park — reads the wall
// clock once, publishes it as this rank's poll stamp in every inbound
// ring, and sweeps the peers' alive locks when the probe interval has
// passed.
func (n *Network) pollTick() {
	if n.pollTicks.Add(1)%stampEvery != 0 && !n.stampDue.Load() {
		return
	}
	now := n.wallNow()
	if n.stampDue.Load() {
		n.stampDue.Store(false)
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		if r := p.rx; r != nil {
			r.pollStamp.Store(now)
		}
	}
	last := n.lastProbe.Load()
	if now-last < int64(n.cfg.ProbeInterval) || !n.lastProbe.CompareAndSwap(last, now) {
		return
	}
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		n.probePeer(p)
	}
}

// consumerPolling reports whether the consumer of tx stamped a poll
// within the live window: it will find a published cell on its own,
// so its doorbell stays silent. A zero stamp (at rest, or a waiter
// about to park) and a stamp from the future (the wall clock stepped)
// both read as not polling — ringing is always safe.
func (n *Network) consumerPolling(tx *ring) bool {
	st := tx.pollStamp.Load()
	if st == 0 {
		return false
	}
	age := n.wallNow() - st
	return age >= 0 && age < int64(pollStampWindow)
}

// probePeer tries the non-blocking shared lock on the peer's alive
// file. Acquirable means no live process holds the exclusive lock: the
// peer is gone. A goodbye marker on its transmit ring classifies the
// exit as graceful (handled by the drain path once the ring empties);
// anything else is a failure verdict. A peer condemned without one — by
// the other leg (MarkPeerDown), by a corrupt stream — is probed all the
// same: only a death seen here says that its ring will never carry
// another byte.
func (n *Network) probePeer(p *peer) {
	if !p.probeMu.TryLock() {
		return // another sweep is already probing this peer
	}
	defer p.probeMu.Unlock()
	p.Mu.Lock()
	dead := p.probeDead
	p.Mu.Unlock()
	if dead || p.gone.Load() || n.closed.Load() {
		return
	}
	if p.probe == nil {
		f, err := os.OpenFile(alivePath(n.dir, p.rank), os.O_RDWR, 0o600)
		if err != nil {
			// Not started yet (or already cleanly departed, which the
			// goodbye marker reports through the drain path).
			return
		}
		p.probe = f
	}
	ok, err := flockSh(p.probe)
	if err != nil || !ok {
		return // alive (or probe failed: stay optimistic, retry next sweep)
	}
	flockUn(p.probe)
	// The lock was free. Goodbye marker decides failure vs departure;
	// the marker is published before the closer releases its lock, so
	// observing a free lock without a marker is a real death.
	p.rxMu.Lock()
	graceful := p.rx != nil && p.rx.departed()
	if !graceful {
		// Nothing more will arrive on the ring: deliver what it holds,
		// then drop the frame still under assembly, which lets go of a
		// receive buffer its body was being placed in.
		n.drainPeerLocked(p)
		p.stream.Release()
	}
	p.rxMu.Unlock()
	if graceful {
		return // drain path will finish the departure once the ring empties
	}
	p.Mu.Lock()
	p.probeDead = true
	p.Mu.Unlock()
	n.verdict(p, fmt.Errorf("shm: rank %d died (alive lock released, epoch %d)", p.rank, n.cfg.Epoch))
}
