// Package composite is the node-aware transport: one
// transport.Transport facade over two legs — intra-node traffic routes
// to the mmap shared-memory transport (internal/transport/shm),
// inter-node traffic to TCP (internal/transport/tcp) — keyed off the
// launcher's rank→node map (DESIGN.md §12). Both legs address
// endpoints in the same space (framing.Space), so routing is a per-post
// decision and the MPI layer sees a single endpoint space.
//
// Failure semantics compose: each leg keeps its own PeerDown verdict
// machinery (TCP's lost connection, shm's flock liveness probe),
// the merged completion drain deduplicates verdicts per rank so the
// MPI layer sees exactly one, and the first verdict is cross-wired
// into the other leg (MarkPeerDown) so posts fail fast on both. This
// is the transport-composition seam any future backend (QUIC, RDMA
// emulation) plugs into.
package composite

import (
	"errors"
	"fmt"
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

// Leg is the contract each composed backend must satisfy: a transport
// whose links the composite fans its progress hooks out to, plus the
// two failure hooks the composition needs. Both internal/transport/shm
// and internal/transport/tcp implement it.
type Leg interface {
	transport.Transport
	// Kill terminates the leg abruptly, no goodbye (the SIGKILL test
	// hook).
	Kill()
	// MarkPeerDown records a failure learned by the other leg: posts
	// fail fast, queued frames fail, no verdict CQE fan-out.
	MarkPeerDown(rank int, cause error)
}

// Config parameterizes the composite routing.
type Config struct {
	Rank      int
	WorldSize int
	// NodeOf maps each world rank to its node id; nil means all ranks
	// share one node (the launch contract's default).
	NodeOf []int
}

// Network routes one rank's traffic across the two legs
// (transport.Transport).
type Network struct {
	framing.Space // EndpointOf, RankOfEndpoint: the legs' shared space

	cfg    Config
	local  Leg // shared memory; nil when unavailable (pure-TCP fallback)
	remote Leg // TCP

	// remoteUsed is false when every peer routes over the local leg (a
	// single-node job): the progress path then skips the TCP leg's
	// polls and drains entirely. On an oversubscribed node every spin
	// cycle the poller burns is stolen from the co-located rank doing
	// real work, so halving the per-pass cost is a direct throughput
	// win for the intra-node fast path. Posts still consult the route
	// table; only the recurring poll-side work is gated.
	remoteUsed bool

	mu     sync.Mutex
	closed bool
	links  []*Link
}

// New composes the legs. local may be nil (no same-node peers, or the
// platform lacks mmap): every destination then routes to remote.
func New(cfg Config, local, remote Leg) (*Network, error) {
	if remote == nil {
		return nil, errors.New("composite: remote leg is required")
	}
	if cfg.WorldSize <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.WorldSize {
		return nil, fmt.Errorf("composite: bad rank/world %d/%d", cfg.Rank, cfg.WorldSize)
	}
	if cfg.NodeOf != nil && len(cfg.NodeOf) != cfg.WorldSize {
		return nil, fmt.Errorf("composite: NodeOf has %d entries, want %d", len(cfg.NodeOf), cfg.WorldSize)
	}
	n := &Network{Space: framing.Space(cfg.WorldSize), cfg: cfg, local: local, remote: remote}
	for r := 0; r < cfg.WorldSize; r++ {
		if !n.sameNode(r) {
			n.remoteUsed = true
			break
		}
	}
	return n, nil
}

// NodeOf returns the node id hosting the given rank: the launcher's
// host map.
func (n *Network) NodeOf(rank int) int {
	if n.cfg.NodeOf == nil {
		return 0
	}
	return n.cfg.NodeOf[rank]
}

// sameNode reports whether a rank shares this process's node and the
// shm leg is available to reach it.
func (n *Network) sameNode(rank int) bool {
	return n.local != nil && n.NodeOf(rank) == n.NodeOf(n.cfg.Rank)
}

// Local returns the shm leg (nil in pure-TCP fallback); test hook.
func (n *Network) Local() Leg { return n.local }

// Multiprocess reports true: ranks are separate OS processes.
func (n *Network) Multiprocess() bool { return true }

// PeerReader asks the leg that reaches the rank: the shm leg for a
// same-node peer, tcp (which has none) for every other.
func (n *Network) PeerReader(rank int) transport.PeerReader {
	if n.sameNode(rank) {
		return n.local.PeerReader(rank)
	}
	return n.remote.PeerReader(rank)
}

// SetCodec fans the codec to both legs.
func (n *Network) SetCodec(c nic.Codec) {
	if n.local != nil {
		n.local.SetCodec(c)
	}
	n.remote.SetCodec(c)
}

// SetClock fans the clock to both legs.
func (n *Network) SetClock(c timing.Clock) {
	if n.local != nil {
		n.local.SetClock(c)
	}
	n.remote.SetClock(c)
}

// Start starts both legs' passive sides.
func (n *Network) Start() error {
	if n.local != nil {
		if err := n.local.Start(); err != nil {
			return err
		}
	}
	return n.remote.Start()
}

// AddLink registers the local VCI's link on both legs and returns the
// routing facade.
func (n *Network) AddLink(rank, vci int) (nic.Link, error) {
	if rank != n.cfg.Rank {
		return nil, fmt.Errorf("composite: AddLink for rank %d on rank %d's transport", rank, n.cfg.Rank)
	}
	l := &Link{
		net:      n,
		id:       n.EndpointOf(rank, vci),
		seenDown: make([]bool, n.cfg.WorldSize),
	}
	var err error
	if n.local != nil {
		if l.local, err = n.local.AddLink(rank, vci); err != nil {
			return nil, err
		}
	}
	if l.remote, err = n.remote.AddLink(rank, vci); err != nil {
		if l.local != nil {
			l.local.Close()
		}
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("composite: transport closed")
	}
	n.links = append(n.links, l)
	return l, nil
}

// Close closes both legs gracefully. Idempotent.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	if n.local != nil {
		n.local.Close()
	}
	return n.remote.Close()
}

// Kill terminates both legs abruptly (the SIGKILL test hook).
func (n *Network) Kill() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	if n.local != nil {
		n.local.Kill()
	}
	n.remote.Kill()
}

// crossWire propagates a verdict from one leg into the other, so posts
// on the leg that has not noticed yet fail fast instead of queueing
// into a dead ring or a dead dial.
func (n *Network) crossWire(rank int, cause error) {
	if n.local != nil {
		n.local.MarkPeerDown(rank, cause)
	}
	n.remote.MarkPeerDown(rank, cause)
}

// Link is one VCI's endpoint pair behind a single nic.Link facade.
// Routing is by destination rank: same node → shm, different node →
// TCP. Drains merge both legs, local first (it carries the latency-
// sensitive traffic), preserving within-leg order — which is what
// keeps the verdict-before-failed-frames contract intact across the
// merge, since each leg orders its own stream and a suppressed
// duplicate verdict only ever follows the delivered one.
type Link struct {
	net    *Network
	id     fabric.EndpointID
	local  nic.Link // nil in pure-TCP fallback
	remote nic.Link
	// mu guards the merge scratches and the per-rank verdict filter.
	mu        sync.Mutex
	seenDown  []bool
	cqScratch []nic.CQE
	rqScratch []fabric.Packet

	closed atomic.Bool
}

// ID returns the link's endpoint address.
func (l *Link) ID() fabric.EndpointID { return l.id }

// BindWork attaches the stream's netmod work counter to both legs.
func (l *Link) BindWork(w nic.WorkCounter) {
	if l.local != nil {
		l.local.BindWork(w)
	}
	l.remote.BindWork(w)
}

// UseMetrics wires both legs to the registry under the caller's scope
// (the tcp leg: scope.peer_down and the transport-wide tcp.* set; the
// shm leg: the transport-wide shm.* set).
func (l *Link) UseMetrics(reg *metrics.Registry, scope string) {
	if l.local != nil {
		l.local.UseMetrics(reg, scope)
	}
	l.remote.UseMetrics(reg, scope)
}

// Now returns the completion clock (the remote leg's — both legs are
// injected the same world clock).
func (l *Link) Now() time.Duration { return l.remote.Now() }

// SetArm registers the idle→busy callback on both legs.
func (l *Link) SetArm(arm func()) {
	if l.local != nil {
		l.local.SetArm(arm)
	}
	l.remote.SetArm(arm)
}

// Parking runs both legs' halves of the park handshake:
// the shm leg tells producers in other processes to ring, the tcp leg
// — in a job that has one — reads the sockets its watchers may not have
// heard about yet. Sleeping is safe when both say so.
func (l *Link) Parking() bool {
	if l.local != nil && !l.local.Parking() {
		return false
	}
	return !l.net.remoteUsed || l.remote.Parking()
}

// PendingTx sums posted-but-unsettled frames across legs.
func (l *Link) PendingTx() int {
	t := l.remote.PendingTx()
	if l.local != nil {
		t += l.local.PendingTx()
	}
	return t
}

// Close marks the facade closed and closes both leg links.
func (l *Link) Close() error {
	l.closed.Store(true)
	if l.local != nil {
		l.local.Close()
	}
	return l.remote.Close()
}

// route picks the leg for a destination endpoint.
func (l *Link) route(dst fabric.EndpointID) nic.Link {
	if l.net.sameNode(l.net.RankOfEndpoint(dst)) {
		return l.local
	}
	return l.remote
}

// PostSendInline routes an unsignaled post (nic.Link).
func (l *Link) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	if l.closed.Load() {
		return errors.New("composite: post on closed link")
	}
	return l.route(dst).PostSendInline(dst, payload, bytes)
}

// PostSend routes a signaled post (nic.Link).
func (l *Link) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	if l.closed.Load() {
		return errors.New("composite: post on closed link")
	}
	return l.route(dst).PostSend(dst, payload, bytes, token)
}

// Flush pumps both legs.
func (l *Link) Flush() (made, idle bool) {
	made, idle = false, true
	if l.local != nil {
		made, idle = l.local.Flush()
	}
	if l.net.remoteUsed {
		m, i := l.remote.Flush()
		made, idle = made || m, idle && i
	}
	return made, idle
}

// PollRecv ingests on both legs; a single-node job polls only the
// local leg.
func (l *Link) PollRecv() (made bool) {
	if l.local != nil {
		made = l.local.PollRecv()
	}
	if l.net.remoteUsed && l.remote.PollRecv() {
		made = true
	}
	return made
}

// DrainCQ merges both legs' completions into buf — local leg first,
// within-leg order preserved — deduplicating PeerDown verdicts per
// rank: both legs detect the same death independently (TCP by conn
// loss, shm by the flock probe), the MPI layer must see one verdict.
// The first verdict through also cross-wires the other leg.
func (l *Link) DrainCQ(buf []nic.CQE) []nic.CQE {
	buf = buf[:0]
	if cap(buf) == 0 || l.QueuedCQ() == 0 {
		return buf // atomic-only empty check keeps the spin path lock-free
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.local != nil {
		buf = l.local.DrainCQ(buf)
	}
	if rem := cap(buf) - len(buf); rem > 0 && l.net.remoteUsed {
		if cap(l.cqScratch) < rem {
			l.cqScratch = make([]nic.CQE, 0, rem)
		}
		buf = append(buf, l.remote.DrainCQ(l.cqScratch[:0:rem])...)
	}
	// Filter duplicate verdicts in place.
	out := buf[:0]
	for _, c := range buf {
		if pd, ok := c.Token.(nic.PeerDown); ok {
			if l.seenDown[pd.Rank] {
				continue // the other leg already delivered this death
			}
			l.seenDown[pd.Rank] = true
			l.net.crossWire(pd.Rank, c.Err)
		}
		out = append(out, c)
	}
	for i := len(out); i < len(buf); i++ {
		buf[i] = nic.CQE{}
	}
	return out
}

// DrainRQ merges both legs' arrivals into buf, local leg first.
func (l *Link) DrainRQ(buf []fabric.Packet) []fabric.Packet {
	buf = buf[:0]
	if cap(buf) == 0 || l.QueuedRQ() == 0 {
		return buf // atomic-only empty check keeps the spin path lock-free
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.local != nil {
		buf = l.local.DrainRQ(buf)
	}
	if rem := cap(buf) - len(buf); rem > 0 && l.net.remoteUsed {
		if cap(l.rqScratch) < rem {
			l.rqScratch = make([]fabric.Packet, 0, rem)
		}
		buf = append(buf, l.remote.DrainRQ(l.rqScratch[:0:rem])...)
	}
	return buf
}

// QueuedCQ sums unpolled completions across legs.
func (l *Link) QueuedCQ() int {
	q := 0
	if l.net.remoteUsed {
		q = l.remote.QueuedCQ()
	}
	if l.local != nil {
		q += l.local.QueuedCQ()
	}
	return q
}

// QueuedRQ sums unpolled arrivals across legs.
func (l *Link) QueuedRQ() int {
	q := 0
	if l.net.remoteUsed {
		q = l.remote.QueuedRQ()
	}
	if l.local != nil {
		q += l.local.QueuedRQ()
	}
	return q
}
