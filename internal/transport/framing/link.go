package framing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/timing"
)

// Space is the endpoint address space of a world of that many ranks.
// Addressing is global and computable without a handshake, which lets
// the MPI world build its rank→endpoint table for VCI 0 before any byte
// has flowed, and lets a router send one endpoint space over several
// transports.
type Space int

// EndpointOf computes the global endpoint address of (rank, vci).
func (s Space) EndpointOf(rank, vci int) fabric.EndpointID {
	return fabric.EndpointID(vci*int(s) + rank)
}

// RankOfEndpoint maps an endpoint address back to its owning world
// rank (transport.Transport); the MPI layer uses it to attribute
// failures to a process.
func (s Space) RankOfEndpoint(ep fabric.EndpointID) int { return int(ep) % int(s) }

// Table is what the links of one transport instance share: the payload
// codec, the completion clock, and the copy-on-write endpoint→link
// registry — lookups on the drain path are one atomic load, no lock.
type Table struct {
	codec nic.Codec
	split nic.SplitCodec // codec's zero-copy side; nil when it has none
	clk   timing.Clock

	mu    sync.Mutex // serializes Register
	links atomic.Pointer[linkSet]

	met atomic.Pointer[tableMetrics] // nil until UseMetrics
}

// tableMetrics counts how the table's streams assembled the frames that
// did not arrive whole: <scope>.rx.placed — the body written where the
// codec placed it — and <scope>.rx.staged — the frame in a staging
// buffer.
type tableMetrics struct {
	reg            *metrics.Registry
	placed, staged *metrics.Counter
}

// UseMetrics wires the table's streams to the registry under the
// transport's scope ("tcp", "shm"); the first call wins. Unwired or
// disabled, a counting site costs an atomic load.
func (t *Table) UseMetrics(reg *metrics.Registry, scope string) {
	if reg != nil {
		t.met.CompareAndSwap(nil, &tableMetrics{
			reg:    reg,
			placed: reg.Counter(scope + ".rx.placed"),
			staged: reg.Counter(scope + ".rx.staged"),
		})
	}
}

// countAssembly counts one frame assembled placed or staged.
func (t *Table) countAssembly(placed bool) {
	if m := t.met.Load(); m != nil && m.reg.On() {
		if placed {
			m.placed.Inc()
		} else {
			m.staged.Inc()
		}
	}
}

// linkSet is one immutable snapshot of the registry: a map for the
// drain path, a list for fan-outs.
type linkSet struct {
	byEP map[fabric.EndpointID]*Link
	list []*Link
}

// NewTable returns an empty table, on the wall clock until SetClock.
func NewTable() *Table { return &Table{clk: timing.NewRealClock()} }

// SetCodec installs the payload codec.
func (t *Table) SetCodec(c nic.Codec) {
	t.codec = c
	t.split, _ = c.(nic.SplitCodec)
}

// SetClock installs the completion clock.
func (t *Table) SetClock(c timing.Clock) { t.clk = c }

// Register enters l under the endpoint address id.
func (t *Table) Register(l *Link, id fabric.EndpointID) error {
	l.tab, l.id = t, id
	t.mu.Lock()
	defer t.mu.Unlock()
	next := &linkSet{byEP: map[fabric.EndpointID]*Link{l.id: l}}
	if old := t.links.Load(); old != nil {
		if _, dup := old.byEP[l.id]; dup {
			return fmt.Errorf("framing: duplicate link for endpoint %d", l.id)
		}
		for id, ol := range old.byEP {
			next.byEP[id] = ol
		}
		next.list = append(next.list, old.list...)
	}
	next.list = append(next.list, l)
	t.links.Store(next)
	return nil
}

// Lookup resolves a destination endpoint; nil when nobody registered
// it.
func (t *Table) Lookup(ep fabric.EndpointID) *Link {
	if s := t.links.Load(); s != nil {
		return s.byEP[ep]
	}
	return nil
}

// Links returns the registered-link snapshot (shared, read-only).
func (t *Table) Links() []*Link {
	if s := t.links.Load(); s != nil {
		return s.list
	}
	return nil
}

// KickAll re-arms the flush poll of every link with output pending
// (after a dial lands, frames queued behind it need a new flush pass).
func (t *Table) KickAll() {
	for _, l := range t.Links() {
		l.Kick()
	}
}

// PeerDown reports the failure verdict on rank: every registered link
// receives a control completion whose token is nic.PeerDown, and only
// then do the frames that were queued toward the peer fail. Verdict
// first, queued-frame failures second: the PeerDown CQE must precede
// the per-frame ErrLinkDown CQEs in each link's CQ so the MPI layer
// sweeps its handle tables (completing rendezvous sends with the
// process-failure error) before the stale frame completions arrive and
// hit the already-failed guards.
func (t *Table) PeerDown(rank int, cause error, frames []Frame) {
	cqe := nic.CQE{Token: nic.PeerDown{Rank: rank}, At: t.clk.Now(), Err: linkDown(cause)}
	for _, l := range t.Links() {
		l.cq.Push(cqe)
	}
	t.Fail(frames, cause)
}

// Fail settles frames that can never reach the wire: signaled sends get
// an error completion, inline ones just release their pending unit.
func (t *Table) Fail(frames []Frame, cause error) {
	if len(frames) == 0 {
		return
	}
	now := t.clk.Now()
	for _, f := range frames {
		if f.Signaled {
			f.Link.cq.Push(nic.CQE{Token: f.Token, At: now, Err: linkDown(cause)})
		}
		f.Link.pending.Add(-1)
	}
}

func linkDown(cause error) error { return fmt.Errorf("%w: %v", nic.ErrLinkDown, cause) }

// Link is the part of a byte transport's nic.Link that does not depend
// on what carries the bytes: the address, the completion and receive
// queues MPI progress drains, the count of frames posted but not yet
// on the wire, and the arm/disarm handshake with the flush poll. A
// transport embeds it and adds the post, flush and poll that are its
// own.
type Link struct {
	tab *Table
	id  fabric.EndpointID

	work nic.WorkCounter
	cq   nic.Queue[nic.CQE]
	rq   nic.Queue[fabric.Packet]

	// pending counts this link's posted-but-unsettled frames.
	pending atomic.Int64

	arm   func()
	armMu sync.Mutex
	armed atomic.Bool // fast-path readable; transitions under armMu

	closed atomic.Bool
}

// ID returns the link's global endpoint address.
func (l *Link) ID() fabric.EndpointID { return l.id }

// Now returns the transport clock.
func (l *Link) Now() time.Duration { return l.tab.clk.Now() }

// BindWork attaches the owning stream's netmod work counter: every
// queued CQE or arrival adds one unit, every drained entry removes one.
// It also parks one permanent unit there, released by Close: a byte
// transport learns of input by looking (PollRecv), so polling its link
// might make progress on any pass, and the counted-hook contract
// (core.RegisterHookCounted) wants the counter positive whenever that
// is so. What the look costs when nothing is there is the transport's
// business: a few atomic operations per ring on shm and per connection
// on tcp.
func (l *Link) BindWork(w nic.WorkCounter) {
	l.work = w
	l.cq.Bind(w)
	l.rq.Bind(w)
	l.Bump(1)
}

// Bump adds units to the bound work counter for a reason of the
// transport's own — input it knows of that is not in the receive queue
// yet — so the owning stream's next pass polls the netmod instead of
// skipping it as idle.
func (l *Link) Bump(delta int) {
	if w := l.work; w != nil {
		w.Add(delta)
	}
}

// SetArm registers the idle→busy callback (nic.Link); the MPI layer
// points it at Stream.AsyncStart for the flush poll.
func (l *Link) SetArm(arm func()) { l.arm = arm }

// PendingTx reports posted-but-unsettled frames (nic.Link).
func (l *Link) PendingTx() int { return int(l.pending.Load()) }

// DrainCQ moves up to cap(buf) completions into buf[:0] (nic.Link);
// same zero-allocation batch contract as the simulated endpoint.
func (l *Link) DrainCQ(buf []nic.CQE) []nic.CQE { return l.cq.Drain(buf) }

// DrainRQ moves up to cap(buf) arrived packets into buf[:0] (nic.Link).
func (l *Link) DrainRQ(buf []fabric.Packet) []fabric.Packet { return l.rq.Drain(buf) }

// QueuedCQ returns unpolled completions (one atomic load).
func (l *Link) QueuedCQ() int { return l.cq.Len() }

// QueuedRQ returns unpolled arrivals (one atomic load).
func (l *Link) QueuedRQ() int { return l.rq.Len() }

// Shut marks the link closed — posts fail from here on — and reports
// whether this call was the one that closed it.
func (l *Link) Shut() bool { return l.closed.CompareAndSwap(false, true) }

// Close marks the link dead (nic.Link) and releases the polling unit
// BindWork parked; the transport owns what is underneath.
func (l *Link) Close() error {
	if l.Shut() {
		l.Bump(-1)
	}
	return nil
}

// Closed reports whether the link was shut.
func (l *Link) Closed() bool { return l.closed.Load() }

// Loopback delivers a frame l posts to an endpoint of its own process
// — a rank's send to itself, on any of its VCIs — which no carrier
// reaches: a tcp rank has no connection to itself, a shm rank no ring.
// The frame crosses the codec all the same (nic.RoundTrip, the
// simulated endpoint's round trip), so it arrives as every other frame
// does (handle ids instead of pointers, the payload a private copy in a
// staging buffer): pushed onto the destination link's receive queue —
// which bumps that link's work counter — and, for a signaled post,
// completed on l's CQ. Nothing references the poster's memory once this
// returns, which is a carried frame's ownership rule with the wire taken
// out: an inline payload is the caller's again on return, a signaled
// one at the CQE. An error means no CQE.
func (l *Link) Loopback(dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) error {
	to := l.tab.Lookup(dst)
	if to == nil || to.Closed() {
		return fmt.Errorf("framing: self-send to endpoint %d: no open link", dst)
	}
	dec, err := nic.RoundTrip(l.tab.codec, payload)
	if err != nil {
		return fmt.Errorf("framing: loopback codec: %w", err)
	}
	to.rq.Push(fabric.Packet{Src: l.id, Dst: dst, Payload: dec, Bytes: bytes})
	if signaled {
		l.cq.Push(nic.CQE{Token: token, At: l.Now()})
	}
	return nil
}

// Kick arms the flush poll if the link has pending output and is not
// already armed. Called after posts and after a dial completes; never
// under a peer lock.
func (l *Link) Kick() {
	if l.arm == nil || l.pending.Load() == 0 {
		return
	}
	// Already-armed is the common case on a burst (one kick per post):
	// the atomic read keeps the mutex off that path. A read that races
	// Disarm is safe because each side writes its own word before it
	// reads the other's — the post bumped pending before it came here,
	// Disarm clears armed before it looks at pending — so one of the two
	// sees the other.
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

// Disarm ends a flush pass: the link goes idle — the flush poll
// returns Done and the next post re-arms — unless it still has frames
// pending or the transport is waiting on something (a dial, a full
// ring) with output queued behind it.
func (l *Link) Disarm(waiting bool) (idle bool) {
	l.armMu.Lock()
	l.armed.Store(false)
	idle = l.pending.Load() == 0 && !waiting
	if !idle {
		l.armed.Store(true)
	}
	l.armMu.Unlock()
	return idle
}

// Peer is the transport-independent half of the send side toward one
// remote rank: the coalescing output queue and the two reasons posts
// toward it are refused — a failure verdict, a graceful goodbye. Mu
// guards all of it, and whatever the embedding transport keeps beside
// it (its socket, its ring). Lock order: Mu → link CQ; nothing takes Mu
// while holding a link queue's lock.
type Peer struct {
	Mu sync.Mutex
	Q  Queue

	down error // failure verdict; set once, never cleared
	gone error // the peer said goodbye: refusal, not failure

	// settled is reused by Settle for the settled-frame batch. The loss
	// paths (write error, verdict, close) allocate instead — they are
	// cold and consume their frames outside the lock.
	settled []Frame
}

// Refusal returns why posts toward the peer fail fast — its verdict,
// or its departure — and nil while it is reachable. Caller holds Mu.
func (p *Peer) Refusal() error {
	if p.down != nil {
		return p.down
	}
	return p.gone
}

// Condemn records cause as the peer's failure verdict and empties its
// queue; the caller reports the frames (Table.PeerDown, or Table.Fail
// when another leg already delivered the verdict) after releasing Mu.
// It reports false, and does nothing, when the peer already has a
// verdict. Caller holds Mu.
func (p *Peer) Condemn(cause error) (frames []Frame, first bool) {
	if p.down != nil {
		return nil, false
	}
	p.down = cause
	return p.Q.TakeAll(nil), true
}

// Depart records the peer's goodbye: posts are refused with cause from
// here on, and connection losses are teardown, not failure. Caller
// holds Mu.
func (p *Peer) Depart(cause error) { p.gone = cause }

// Settle completes the frames the written watermark has passed — a CQE
// for a signaled send, a pending unit back for every frame — and
// returns their number. Caller holds Mu: the batch is a reused scratch.
func (p *Peer) Settle() int {
	p.settled = p.Q.PopSettled(p.settled)
	if len(p.settled) == 0 {
		return 0
	}
	now := p.settled[0].Link.Now()
	for _, f := range p.settled {
		if f.Signaled {
			f.Link.cq.Push(nic.CQE{Token: f.Token, At: now})
		}
		f.Link.pending.Add(-1)
	}
	return len(p.settled)
}

// Post queues one frame from l toward the peer, or refuses it. A post
// to a peer already known down or departed fails fast: dialing a
// departed peer's closed listener would just burn the dial window
// before reaching the same conclusion. A signaled post reports that
// failure through the CQE ONLY and returns nil — the caller owns the
// token's completion exactly once, and returning the error as well
// would hand it a second completion path (the eager-send path completes
// its request inline on a post error, per the raw NIC's
// error-means-no-CQE contract). queued reports whether the frame went
// into the queue. Caller holds Mu.
func (p *Peer) Post(l *Link, dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) (queued bool, err error) {
	if err := p.Refusal(); err != nil {
		if signaled {
			l.cq.Push(nic.CQE{Token: token, At: l.Now(), Err: linkDown(err)})
			return false, nil
		}
		return false, err
	}
	if err := p.Q.Append(l, dst, payload, bytes, token, signaled); err != nil {
		return false, fmt.Errorf("framing: encode: %w", err)
	}
	l.pending.Add(1)
	return true, nil
}
