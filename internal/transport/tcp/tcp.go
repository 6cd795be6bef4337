// Package tcp is the real-socket transport backend: each MPI rank is
// its own OS process, links are nic.Link implementations over
// length-prefixed TCP frames, and socket work is driven by a
// readiness reactor whose polling *is* MPI progress.
//
// Reactor model: the bytes move on a draining thread, and a drain is
// bounded non-blocking reads that parse frames in place and feed the
// zero-alloc CQ/RQ drains with no per-frame goroutine or channel hop.
// Two kinds of thread drain a connection. The owning stream's progress
// poll (Link.PollRecv, wired into the MPI netmod and run on every pass
// — the link keeps a unit on the stream's netmod work counter, as every
// byte transport does) probes each connection at a widening cadence
// (the 1st look, then 1, 2, 4 … looks later, at least every 64th, and
// once before the waiter parks — Link.Parking), so that an empty poll
// costs atomics and input is still found when nothing else would
// announce it. And one watcher goroutine per connection, parked in the
// runtime netpoller (the epoll loop the Go runtime already maintains),
// reads its socket dry whenever it turns readable and parks again, as
// shm's doorbell watcher drains its rings: ingest stays live when no
// MPI thread polls — the rank went computing, or sits blocked in a
// writev that needs its peer to drain — and the receive-queue push of
// what it delivered wakes a waiter parked on the destination link's
// stream. The runtime consults its netpoller when a P has nothing to
// run: at once in a process whose ranks sleep or have cores to spare,
// never while ranks yield to each other on one core — hence the
// probes. Outbound frames coalesce into pooled per-peer segments and
// reach the kernel as vectored writes (net.Buffers → writev), flushed
// on a byte budget, by progress, or by the millisecond sweeper — never
// per frame.
//
// Connection model: every process binds one listener at New. The first
// post toward a peer lazily dials its address in the background;
// inbound connections are accepted at any time. A process only writes
// on connections it dialed and reads on every connection it has, so a
// pair of ranks uses at most two sockets and no tie-breaking is needed.
//
// Failure model: losing an established connection (EOF, reset, write
// error) is the per-peer failure *verdict*, as one piece of evidence is
// on shm: every local link receives a control completion whose token is
// nic.PeerDown{Rank}, which the MPI layer translates into
// process-failure semantics, and then every queued frame toward the
// peer fails with nic.ErrLinkDown. A connection is never re-dialed: the
// bytes a lost socket swallowed are gone, and only a verdict says so.
// Hostile input never panics the rank: a frame for an unregistered
// endpoint is counted and skipped; a corrupt length or payload, or a
// frame from another rank's endpoint, is counted and drops the
// connection, which is the verdict.
//
// What is not about sockets — the link core MPI progress drains, the
// endpoint space and link table, the out-queue, the receive stream's
// frame parser — is internal/transport/framing, shared with the shm
// transport.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/timing"
	"gompix/internal/transport"
	"gompix/internal/transport/framing"
)

// helloMagic opens every connection, followed by the epoch and the
// dialer's rank; a mismatched epoch (a stale process from a previous
// launch) is rejected at accept.
const helloMagic = 0x6d706978 // "mpix"

// goodbyeMark, sent in place of a frame-length prefix, announces a
// graceful departure: the peer is closing after finalize, so the EOF
// that follows is not a failure — no verdict. A crashed
// process never writes it, which is exactly how peers tell the two
// apart.
const goodbyeMark = 0xFFFFFFFF

// errPeerDeparted is the connection exit cause after a goodbye.
var errPeerDeparted = errors.New("tcp: peer departed cleanly")

// Config describes one rank's slot in a multi-process TCP world.
type Config struct {
	// Rank is this process's world rank.
	Rank int
	// WorldSize is the number of ranks (= OS processes).
	WorldSize int
	// Addrs holds the listen address of every rank, indexed by rank.
	// Addrs[Rank] is the local bind address; an empty string binds
	// 127.0.0.1:0 (use Addr/SetPeerAddrs to exchange the chosen ports —
	// the in-process test path).
	Addrs []string
	// Epoch tags the launch; connections from other epochs are refused.
	Epoch uint64
	// DialTimeout bounds the total lazy-dial retry window per peer
	// (default 10s).
	DialTimeout time.Duration
}

// Stats is a snapshot of the transport's failure and reactor counters.
type Stats struct {
	// PeersDown counts peer-failure verdicts.
	PeersDown int64
	// CorruptFrames counts connections dropped for unparseable input or
	// a frame from another rank's endpoint.
	CorruptFrames int64
	// UnknownEndpoints counts frames skipped for an unregistered
	// endpoint.
	UnknownEndpoints int64
	// ReactorWakeups counts watcher wakeups (readable-socket events).
	ReactorWakeups int64
	// PoolDrains counts the drains of connection watchers — not of
	// caller-thread progress polls — that delivered a frame.
	PoolDrains int64
	// Probes counts the reads progress polls issued; ProbeHits, those
	// that returned bytes.
	Probes    int64
	ProbeHits int64
}

// Network is the TCP transport for one rank: the listener, the peer
// connection table, and the per-VCI links (transport.Transport).
type Network struct {
	framing.Space // EndpointOf, RankOfEndpoint

	cfg Config
	ln  net.Listener
	tab *framing.Table // codec, clock, link registry

	mu     sync.Mutex
	addrs  []string
	peers  []*peer // indexed by rank; peers[cfg.Rank] is nil
	conns  map[*connState]struct{}
	closed bool
	// verdicts holds the scope.peer_down counter of every link wired to
	// a registry.
	verdicts []*metrics.Counter

	// connTab is the lock-free snapshot of conns for the drain path;
	// rebuilt under mu on registration changes.
	connTab atomic.Pointer[[]*connState]

	met atomic.Pointer[netMetrics]

	// closeCh aborts the lazy dial's retry sleeps and the sweeper.
	closeCh chan struct{}

	peersDown      atomic.Int64
	rxCorrupt      atomic.Int64
	rxUnknownEP    atomic.Int64
	reactorWakeups atomic.Int64
	poolDrains     atomic.Int64
	probes         atomic.Int64
	probeHits      atomic.Int64

	wg sync.WaitGroup
}

// netMetrics is the transport-wide registry wiring: failure events
// that cannot be attributed to a single link, plus the reactor and
// writev instrumentation.
type netMetrics struct {
	rxCorrupt   *metrics.Counter
	rxUnknownEP *metrics.Counter
	peersDown   *metrics.Counter

	wakeups    *metrics.Counter   // tcp.reactor.wakeups
	poolDrains *metrics.Counter   // tcp.reactor.pool_drains
	probes     *metrics.Counter   // tcp.reactor.probes
	probeHits  *metrics.Counter   // tcp.reactor.probe_hits
	writevs    *metrics.Counter   // tcp.tx.writev
	writevSegs *metrics.Histogram // tcp.tx.writev_segs (iovec entries per flush)
	flushBatch *metrics.Histogram // tcp.tx.flush_frames (frames settled per flush)
}

// peer is the outbound side toward one remote rank: the coalescing
// output queue that accumulates frames between flushes and the peer's
// verdict (framing.Peer), and under the same lock the lazily dialed
// write connection.
type peer struct {
	framing.Peer
	rank    int
	conn    net.Conn
	dialing bool // initial background dial in flight
}

// New binds the rank's listener and returns the transport. The accept
// loop does not run until Start, so the MPI layer can register the
// VCI-0 link first.
func New(cfg Config) (*Network, error) {
	if cfg.WorldSize <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.WorldSize {
		return nil, fmt.Errorf("tcp: invalid rank %d of world size %d", cfg.Rank, cfg.WorldSize)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	bind := "127.0.0.1:0"
	if cfg.Rank < len(cfg.Addrs) && cfg.Addrs[cfg.Rank] != "" {
		bind = cfg.Addrs[cfg.Rank]
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("tcp: bind %s: %w", bind, err)
	}
	n := &Network{
		Space:   framing.Space(cfg.WorldSize),
		tab:     framing.NewTable(),
		cfg:     cfg,
		ln:      ln,
		addrs:   append([]string(nil), cfg.Addrs...),
		peers:   make([]*peer, cfg.WorldSize),
		conns:   make(map[*connState]struct{}),
		closeCh: make(chan struct{}),
	}
	for r := 0; r < cfg.WorldSize; r++ {
		if r != cfg.Rank {
			n.peers[r] = &peer{rank: r}
		}
	}
	if len(n.addrs) < cfg.WorldSize {
		n.addrs = append(n.addrs, make([]string, cfg.WorldSize-len(n.addrs))...)
	}
	n.addrs[cfg.Rank] = ln.Addr().String()
	return n, nil
}

// Addr returns the listener's concrete address (useful after binding
// port 0).
func (n *Network) Addr() string { return n.ln.Addr().String() }

// SetPeerAddrs installs the full rank→address table. Needed only when
// Config.Addrs was incomplete at New (the bind-:0-then-exchange test
// path); call it before any traffic.
func (n *Network) SetPeerAddrs(addrs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	copy(n.addrs, addrs)
	n.addrs[n.cfg.Rank] = n.ln.Addr().String()
}

// SetCodec installs the payload codec.
func (n *Network) SetCodec(c nic.Codec) { n.tab.SetCodec(c) }

// SetClock installs the completion clock.
func (n *Network) SetClock(c timing.Clock) { n.tab.SetClock(c) }

// NodeOf returns rank: the transport knows no placement, so every rank
// is its own node.
func (n *Network) NodeOf(rank int) int { return rank }

// Multiprocess reports true: each rank is a separate OS process.
func (n *Network) Multiprocess() bool { return true }

// PeerReader returns nil: every byte to a tcp peer crosses the socket.
func (n *Network) PeerReader(rank int) transport.PeerReader { return nil }

// Stats returns a snapshot of the failure and reactor counters.
func (n *Network) Stats() Stats {
	return Stats{
		PeersDown:        n.peersDown.Load(),
		CorruptFrames:    n.rxCorrupt.Load(),
		UnknownEndpoints: n.rxUnknownEP.Load(),
		ReactorWakeups:   n.reactorWakeups.Load(),
		PoolDrains:       n.poolDrains.Load(),
		Probes:           n.probes.Load(),
		ProbeHits:        n.probeHits.Load(),
	}
}

// AddLink registers the link for a local VCI. Only the local rank's
// links exist in this process.
func (n *Network) AddLink(rank, vci int) (nic.Link, error) {
	if rank != n.cfg.Rank {
		return nil, fmt.Errorf("tcp: AddLink for rank %d on rank %d's transport", rank, n.cfg.Rank)
	}
	l := &Link{net: n}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("tcp: transport closed")
	}
	if err := n.tab.Register(&l.Link, n.EndpointOf(rank, vci)); err != nil {
		return nil, fmt.Errorf("tcp: %w", err)
	}
	return l, nil
}

// connList returns the live-connection snapshot (shared, read-only).
func (n *Network) connList() []*connState {
	p := n.connTab.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Start launches the accept loop and the sweeper. Call after the VCI-0
// link is registered so early inbound frames find their target.
func (n *Network) Start() error {
	n.wg.Add(2)
	go n.acceptLoop()
	go n.sweeper()
	return nil
}

// Close shuts the transport down gracefully: it writes the goodbye
// marker on every connection (so peers classify the coming EOFs as a
// departure instead of a failure and reach no verdict), then closes
// the listener and every connection; watchers and dials drain out.
func (n *Network) Close() error {
	n.shutdown(true)
	return nil
}

// Kill is Close without the goodbye — the test hook for an abrupt
// process death (SIGKILL): peers see raw connection resets, and each
// reset is the peer-failure verdict.
func (n *Network) Kill() { n.shutdown(false) }

func (n *Network) shutdown(goodbye bool) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := make([]*connState, 0, len(n.conns))
	for cs := range n.conns {
		conns = append(conns, cs)
	}
	n.mu.Unlock()
	close(n.closeCh)
	if goodbye {
		n.sayGoodbye(conns)
	}
	n.ln.Close()
	for _, cs := range conns {
		cs.conn.Close()
	}
	n.wg.Wait()
	// Whatever is still queued can never be written: settle it, so a
	// closed transport holds no frame — and no borrowed send buffer.
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		p.Mu.Lock()
		frames := p.Q.TakeAll(nil)
		p.Mu.Unlock()
		n.tab.Fail(frames, errors.New("tcp: transport closed"))
	}
}

// sayGoodbye best-effort writes the departure marker on every live
// connection. Writes on a peer's active write connection serialize
// behind its lock so the marker never lands inside a half-written
// frame; accepted (read-side) connections have no competing writer.
func (n *Network) sayGoodbye(conns []*connState) {
	var bye [4]byte
	binary.LittleEndian.PutUint32(bye[:], goodbyeMark)
	for _, cs := range conns {
		var p *peer
		if cs.rank >= 0 && cs.rank < len(n.peers) {
			p = n.peers[cs.rank]
		}
		if p != nil {
			p.Mu.Lock()
		}
		cs.conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
		cs.conn.Write(bye[:])
		if p != nil {
			p.Mu.Unlock()
		}
	}
}

func (n *Network) isClosed() bool {
	select {
	case <-n.closeCh:
		return true
	default:
		return false
	}
}

// startConn registers a live connection and spawns its read driver; it
// reports false (and closes the conn) when the transport is already
// shutting down.
func (n *Network) startConn(conn net.Conn, rank int) bool {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cs := newConnState(n, conn, rank)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return false
	}
	n.conns[cs] = struct{}{}
	n.storeConnTabLocked()
	n.mu.Unlock()
	n.wg.Add(1)
	go n.runConn(cs)
	return true
}

func (n *Network) untrack(cs *connState) {
	n.mu.Lock()
	delete(n.conns, cs)
	n.storeConnTabLocked()
	n.mu.Unlock()
}

func (n *Network) storeConnTabLocked() {
	list := make([]*connState, 0, len(n.conns))
	for cs := range n.conns {
		list = append(list, cs)
	}
	n.connTab.Store(&list)
}

// markDeparted records a peer's goodbye: subsequent connection losses
// to that rank are teardown, not failures, and the frames still queued
// toward it fail, as shm's do — nothing will write them, and a frame
// left queued keeps its link's PendingTx up forever.
func (n *Network) markDeparted(rank int) {
	if rank < 0 || rank >= len(n.peers) {
		return
	}
	p := n.peers[rank]
	if p == nil {
		return
	}
	cause := fmt.Errorf("tcp: rank %d departed", rank)
	p.Mu.Lock()
	p.Depart(cause)
	frames := p.Q.TakeAll(nil)
	p.Mu.Unlock()
	n.tab.Fail(frames, cause)
}

func (n *Network) metricsRef() *netMetrics { return n.met.Load() }

func (n *Network) countCorrupt() {
	n.rxCorrupt.Add(1)
	if met := n.metricsRef(); met != nil {
		met.rxCorrupt.Inc()
	}
}

// countProbe records one read a progress poll issued, and whether it
// found bytes.
func (n *Network) countProbe(hit bool) {
	met := n.metricsRef()
	n.probes.Add(1)
	if met != nil {
		met.probes.Inc()
	}
	if hit {
		n.probeHits.Add(1)
		if met != nil {
			met.probeHits.Inc()
		}
	}
}

func (n *Network) countUnknownEP() {
	n.rxUnknownEP.Add(1)
	if met := n.metricsRef(); met != nil {
		met.rxUnknownEP.Inc()
	}
}

// sendHello writes the connection preamble: magic, epoch, our rank.
func (n *Network) sendHello(conn net.Conn) error {
	var hello [16]byte
	binary.LittleEndian.PutUint32(hello[0:], helloMagic)
	binary.LittleEndian.PutUint64(hello[4:], n.cfg.Epoch)
	binary.LittleEndian.PutUint32(hello[12:], uint32(n.cfg.Rank))
	_, err := conn.Write(hello[:])
	return err
}

func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		var hello [16]byte
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		magic := binary.LittleEndian.Uint32(hello[0:])
		epoch := binary.LittleEndian.Uint64(hello[4:])
		rank := int(binary.LittleEndian.Uint32(hello[12:]))
		if magic != helloMagic || epoch != n.cfg.Epoch ||
			rank >= n.cfg.WorldSize || rank == n.cfg.Rank {
			conn.Close() // stale launch or stray connection
			continue
		}
		if !n.startConn(conn, rank) {
			return
		}
	}
}

// connLost turns the loss of an established connection to rank into
// the peer's verdict, unless the peer said goodbye first or the
// transport itself is closing (shutdown then settles the queue).
func (n *Network) connLost(rank int, cause error) {
	if n.isClosed() {
		return
	}
	p := n.peers[rank]
	p.Mu.Lock()
	departed := p.Refusal() != nil
	p.Mu.Unlock()
	if !departed {
		n.verdict(p, cause)
	}
}

// NotifyPeerDown tells the rank listening at addr that deadRank has
// failed, by opening a connection whose hello carries the dead rank's
// id and closing it immediately: the receiver's accept loop admits the
// connection (valid magic/epoch), its read driver sees instant EOF, and
// connLost turns the loss into the verdict — the survivor reaches its
// own ErrProcFailed verdict without waiting for an organic send toward
// the dead rank to fail. Used by the
// launcher's -on-failure=continue supervision to fan out a roster
// update; best-effort (the survivor may already know, or be gone).
func NotifyPeerDown(addr string, epoch uint64, deadRank int) error {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	var hello [16]byte
	binary.LittleEndian.PutUint32(hello[0:], helloMagic)
	binary.LittleEndian.PutUint64(hello[4:], epoch)
	binary.LittleEndian.PutUint32(hello[12:], uint32(deadRank))
	_, err = conn.Write(hello[:])
	return err
}

// verdict marks a peer permanently failed: every local link receives
// a PeerDown control completion for the MPI layer to translate, then
// the queued frames fail with ErrLinkDown (framing.Table.PeerDown keeps
// that order). Both happen under the peer's lock, so a post the verdict
// refuses cannot put its error completion ahead of the verdict's.
func (n *Network) verdict(p *peer, cause error) {
	p.Mu.Lock()
	defer p.Mu.Unlock()
	if frames, first := p.Condemn(cause); first {
		p.dialing = false
		n.peerDown(p.rank, cause, frames)
	}
}

// MarkPeerDown records a peer failure learned out-of-band — the
// composite transport cross-wires the shm leg's liveness verdict here
// — so posts fail fast and any later organic verdict (a lost
// connection) is suppressed. Queued frames fail, but no PeerDown CQE
// fans out: the leg that reached the verdict already delivered it.
func (n *Network) MarkPeerDown(rank int, cause error) {
	if rank < 0 || rank >= len(n.peers) || n.peers[rank] == nil {
		return
	}
	p := n.peers[rank]
	p.Mu.Lock()
	frames, _ := p.Condemn(cause)
	p.dialing = false
	p.Mu.Unlock()
	n.tab.Fail(frames, cause)
}

// peerDown delivers the failure verdict; when the transport itself is
// closing — nobody is listening, and the teardown is not a fault — the
// queued frames just fail.
func (n *Network) peerDown(rank int, cause error, frames []framing.Frame) {
	n.mu.Lock()
	closed, verdicts := n.closed, n.verdicts
	n.mu.Unlock()
	if closed {
		n.tab.Fail(frames, cause)
		return
	}
	n.peersDown.Add(1)
	if met := n.metricsRef(); met != nil {
		met.peersDown.Inc()
	}
	for _, c := range verdicts {
		c.Inc()
	}
	n.tab.PeerDown(rank, cause, frames)
}

// DropPeer forcibly closes every connection to or from the given rank —
// a test hook simulating a network reset. Read drivers notice, and the
// loss is the peer's verdict on both sides.
func (n *Network) DropPeer(rank int) {
	victims := make([]*connState, 0, 2)
	for _, cs := range n.connList() {
		if cs.rank == rank {
			victims = append(victims, cs)
		}
	}
	for _, cs := range victims {
		cs.conn.Close()
	}
}

// peerOf maps a destination endpoint to its peer; nil for this rank's
// own endpoints, which post loops back (framing.Link.Loopback).
func (n *Network) peerOf(dst fabric.EndpointID) *peer {
	return n.peers[n.RankOfEndpoint(dst)]
}

// dial establishes p's outbound connection in the background, retrying
// inside the configured window (the peer may not have launched yet). On
// success it kicks every armed link so progress flushes the frames
// queued while dialing; failure of the initial window is the
// peer-failure verdict.
func (n *Network) dial(p *peer) {
	defer n.wg.Done()
	n.mu.Lock()
	addr := n.addrs[p.rank]
	n.mu.Unlock()
	var conn net.Conn
	var err error
	deadline := time.Now().Add(n.cfg.DialTimeout)
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil || time.Now().After(deadline) || n.isClosed() {
			break
		}
		select {
		case <-n.closeCh:
		case <-time.After(10 * time.Millisecond): // peer may not have bound yet
		}
	}
	if err == nil {
		if werr := n.sendHello(conn); werr != nil {
			conn.Close()
			err = werr
		}
	}
	if err != nil {
		n.verdict(p, fmt.Errorf("tcp: dial rank %d (%s): %w", p.rank, addr, err))
		return
	}
	if !n.startConn(conn, p.rank) {
		// Transport closed while dialing: settle the queue without a
		// verdict fan-out (peerDown skips on closed anyway).
		n.verdict(p, errors.New("tcp: transport closed"))
		return
	}
	p.Mu.Lock()
	p.conn = conn
	p.dialing = false
	p.Mu.Unlock()
	// Re-kick flush for everything queued behind the dial.
	n.tab.KickAll()
}

// flushPeer drains one peer's coalescing queue to its socket as one
// vectored write (resuming across partial writes), then settles the
// frames behind the written watermark: CQEs for signaled sends, a
// pending-counter release for all. waiting reports frames stuck behind
// the initial dial (the flush poll must keep running for them). A write
// error is a lost connection, and so the peer's verdict, which reaches
// every link ahead of the failed frames.
func (n *Network) flushPeer(p *peer) (made, waiting bool) {
	p.Mu.Lock()
	if p.Q.Pending() == 0 {
		p.Mu.Unlock()
		return false, false
	}
	if p.conn == nil {
		waiting = p.dialing
		p.Mu.Unlock()
		return false, waiting
	}
	conn := p.conn
	// Hold the peer lock across the write: it serializes writers and
	// preserves frame order. The write cannot deadlock on a full TCP
	// window — socket ingest never takes peer locks, so every process
	// keeps reading (progress polls or the connection watchers) while
	// this writev blocks.
	wrote, nsegs, err := p.Q.FlushTo(conn)
	if err != nil {
		p.Mu.Unlock()
		// The verdict before the close: the watcher's exit then finds
		// the peer condemned, and the cause stays the write's.
		n.verdict(p, fmt.Errorf("tcp: write rank %d: %w", p.rank, err))
		conn.Close()
		return true, false
	}
	nset := p.Settle()
	p.Mu.Unlock()
	if wrote {
		if met := n.metricsRef(); met != nil {
			met.writevs.Inc()
			met.writevSegs.Observe(int64(nsegs))
			met.flushBatch.Observe(int64(nset))
		}
	}
	return wrote, false
}

// Link is one VCI's endpoint on the TCP transport (nic.Link). Posts
// append frames to the destination peer's coalescing queue; the wire
// write happens in Flush — invoked by the owning stream's progress via
// the SetArm callback, inline when the backlog passes flushBytes, or by
// the millisecond sweeper. The receive side is the reactor: PollRecv
// probes every connection at a widening cadence on the caller's
// thread, and each connection's watcher reads what arrives while
// nobody polls.
type Link struct {
	framing.Link
	net *Network
}

// UseMetrics wires the link to the registry under the given scope
// prefix (e.g. "rank0.vci0.nic"): peer-failure verdicts increment
// scope.peer_down. The first wired link also registers the transport-
// wide instruments: the failure counters (tcp.rx.corrupt,
// tcp.rx.unknown_ep, tcp.peers_down), the reactor
// counters (tcp.reactor.wakeups; tcp.reactor.pool_drains, the watcher
// drains that delivered; tcp.reactor.probes, tcp.reactor.probe_hits),
// the receive streams' assembly counters (tcp.rx.placed,
// tcp.rx.staged) and the writev batching histograms (tcp.tx.writev,
// tcp.tx.writev_segs, tcp.tx.flush_frames).
func (l *Link) UseMetrics(reg *metrics.Registry, scope string) {
	if reg == nil {
		return
	}
	n := l.net
	n.mu.Lock()
	defer n.mu.Unlock()
	// Copy on write: peerDown reads the slice after releasing mu.
	n.verdicts = append(n.verdicts[:len(n.verdicts):len(n.verdicts)], reg.Counter(scope+".peer_down"))
	if n.met.Load() == nil {
		n.tab.UseMetrics(reg, "tcp")
		n.met.Store(&netMetrics{
			rxCorrupt:   reg.Counter("tcp.rx.corrupt"),
			rxUnknownEP: reg.Counter("tcp.rx.unknown_ep"),
			peersDown:   reg.Counter("tcp.peers_down"),
			wakeups:     reg.Counter("tcp.reactor.wakeups"),
			poolDrains:  reg.Counter("tcp.reactor.pool_drains"),
			probes:      reg.Counter("tcp.reactor.probes"),
			probeHits:   reg.Counter("tcp.reactor.probe_hits"),
			writevs:     reg.Counter("tcp.tx.writev"),
			writevSegs:  reg.Histogram("tcp.tx.writev_segs"),
			flushBatch:  reg.Histogram("tcp.tx.flush_frames"),
		})
	}
}

// PostSendInline queues a frame with no completion (nic.Link). The
// payload is encoded immediately, so the caller's ownership hand-off
// matches the simulated NIC's copy-at-injection semantics.
func (l *Link) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	return l.post(dst, payload, bytes, nil, false)
}

// PostSend queues a frame whose CQE (carrying token) is posted once the
// frame has been flushed to the socket. A post to a peer already known
// down or departed succeeds (returns nil) and surfaces the failure as
// an error CQE — never both, so the token completes exactly once.
func (l *Link) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	return l.post(dst, payload, bytes, token, true)
}

func (l *Link) post(dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) error {
	if l.Closed() {
		return errors.New("tcp: post on closed link")
	}
	p := l.net.peerOf(dst)
	if p == nil {
		return l.Loopback(dst, payload, bytes, token, signaled)
	}
	p.Mu.Lock()
	queued, err := p.Post(&l.Link, dst, payload, bytes, token, signaled)
	if !queued {
		p.Mu.Unlock()
		return err
	}
	needDial := p.conn == nil && !p.dialing
	if needDial {
		p.dialing = true
	}
	// Adaptive batching: a backlog past the flush budget writes inline
	// instead of waiting for the next progress pass — under load the
	// writev batch size adapts to whatever accumulated, idle links
	// flush on the progress/armed path with no per-frame syscall.
	big := p.Q.Pending() >= flushBytes
	p.Mu.Unlock()

	if needDial {
		l.net.wg.Add(1)
		go l.net.dial(p)
	}
	if big {
		l.net.flushPeer(p)
	}
	l.Kick()
	return nil
}

// Flush drains every peer's coalescing queue to its socket: at most
// one vectored write per peer per progress pass, the write-coalescing half of the transport. It reports whether
// anything moved and whether this link disarmed (no pending frames of
// its own left). Peers still dialing are skipped — their frames stay
// queued and the poll keeps running.
func (l *Link) Flush() (made, idle bool) {
	waiting := false
	for _, p := range l.net.peers {
		if p == nil {
			continue
		}
		m, w := l.net.flushPeer(p)
		made = made || m
		waiting = waiting || w
	}
	return made, l.Disarm(waiting)
}
