// Package transport defines the pluggable communication backend behind
// the MPI runtime: the factory that hands each VCI its nic.Link and
// answers the addressing questions — which endpoint a rank's VCI has,
// which rank owns an endpoint, which node hosts a rank. Like nic.Link it
// is one contract with no optional parts: a transport answers what it
// has no use for with a no-op. Four implementations exist: the
// in-process simulated fabric (Sim, the default), and for worlds of one
// rank per OS process TCP (internal/transport/tcp), mmap shared memory
// (internal/transport/shm) and the node-aware router over the two
// (internal/transport/composite).
//
// The interface deliberately sits *under* the reliability layer:
// nic.Reliable is itself a nic.Link, wrapped around whatever Link a
// transport returns, so the go-back-N protocol and the whole netmod run
// unchanged on every backend, through one post and one drain path — the
// MPICH-extension methodology's "an abstraction earns its keep when
// every backend goes through it".
package transport

import (
	"sync"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/timing"
)

// Transport creates the communication links of one MPI process.
type Transport interface {
	// AddLink creates the link for the given (world rank, VCI index)
	// pair on the local process. In-process transports are called for
	// every rank; multiprocess transports only for the local one. A
	// process never adds the same pair twice.
	AddLink(rank, vci int) (nic.Link, error)
	// EndpointOf resolves the endpoint address of a rank's VCI without a
	// link handle: the world communicator is built from it before any
	// byte has flowed.
	EndpointOf(rank, vci int) fabric.EndpointID
	// RankOfEndpoint maps an endpoint address back to the world rank
	// that owns it (-1 when none does). The MPI layer uses it to
	// attribute failures — a lost connection, a released alive lock —
	// to a process rather than a single VCI link, and
	// nic.Reliable to find the endpoints a nic.PeerDown verdict
	// condemns.
	RankOfEndpoint(ep fabric.EndpointID) int
	// NodeOf returns the node id hosting the given world rank; equal id
	// means same physical node. The MPI layer selects topology-aware
	// (leader-based hierarchical) collectives from it. A transport that
	// knows the placement answers with it — the simulated fabric's node
	// map, the launcher's host map on the composite transport — and one
	// that does not answers rank: every rank its own node.
	NodeOf(rank int) int
	// Multiprocess reports whether ranks live in separate OS processes
	// (one World per process, each hosting a single rank).
	Multiprocess() bool
	// SetCodec installs the payload codec every link's posts cross,
	// before traffic flows: the MPI layer's wire-header codec (wrapped in
	// nic.RelCodec when the reliability layer is enabled).
	SetCodec(c nic.Codec)
	// SetClock installs the clock completions are stamped with.
	SetClock(c timing.Clock)
	// Start opens the transport's passive side (accept loop, doorbell
	// watcher). The MPI layer calls it once the local VCI-0 link exists,
	// so inbound frames always find their destination registered.
	Start() error
	// PeerReader returns a reader of the given rank's memory, or nil
	// when this process cannot read it: the rank is on another node,
	// the transport has no such path, or a probe read of the peer
	// failed. A non-nil reader is what lets the MPI layer run a
	// same-node rendezvous as one read by the receiver (DESIGN.md §12).
	PeerReader(rank int) PeerReader
	// Close releases the transport's resources. Idempotent.
	Close() error
}

// PeerReader copies bytes out of a verified peer process's address
// space (a cross-memory read: process_vm_readv on Linux).
type PeerReader interface {
	// ReadPeer copies up to len(dst) bytes from the peer's address addr
	// into dst and returns how many it copied. A short count without an
	// error means the rest is still to be read; an address the peer has
	// not mapped is an error.
	ReadPeer(dst []byte, addr uint64) (int, error)
}

// Sim is the default in-process transport: every link is a simulated
// NIC endpoint on the shared fabric. The fabric hands out endpoint
// addresses as links attach, so Sim records each AddLink to answer the
// addressing questions (NodeOf too, from the node map it attaches by).
//
// Sim reaches the failure verdict the byte transports reach, from the
// fabric's liveness evidence: a post between nodes a partition that
// never heals cuts, in either direction (fabric.ErrCut) — a cut way
// back leaves the peer's acknowledgements stranded as surely as a cut
// way out leaves the post. The first such post from a rank
// toward a peer pushes one nic.PeerDown{peer} control completion on
// each of the rank's links, its Err wrapping nic.ErrLinkDown — the
// contract framing.Table.PeerDown keeps; a link the rank adds later
// starts with it. A partition that heals is an outage, never a verdict.
type Sim struct {
	net    *fabric.Network
	nodeOf func(rank int) int

	mu     sync.Mutex
	codec  nic.Codec                 // every endpoint's (SetCodec)
	eps    map[[2]int]*nic.Endpoint  // (rank, vci) → endpoint
	owners map[fabric.EndpointID]int // endpoint → rank
	cut    map[[2]int]bool           // (rank, peer) pairs a verdict was reported for
}

// NewSim wraps a fabric network as a Transport; nodeOf maps world ranks
// to simulated nodes.
func NewSim(net *fabric.Network, nodeOf func(rank int) int) *Sim {
	return &Sim{
		net:    net,
		nodeOf: nodeOf,
		codec:  nic.ByteCodec{},
		eps:    make(map[[2]int]*nic.Endpoint),
		owners: make(map[fabric.EndpointID]int),
		cut:    make(map[[2]int]bool),
	}
}

// Network returns the underlying fabric.
func (s *Sim) Network() *fabric.Network { return s.net }

// AddLink attaches a fresh NIC endpoint for the rank's node. A link
// added after a verdict on one of the rank's peers starts with that
// verdict on its queue, as the rank's older links got it.
func (s *Sim) AddLink(rank, vci int) (nic.Link, error) {
	ep := nic.NewEndpoint(s.net, s.nodeOf(rank))
	ep.OnCut(func(dst fabric.EndpointID) { s.cutOff(rank, dst) })
	s.mu.Lock()
	ep.SetCodec(s.codec)
	s.eps[[2]int{rank, vci}] = ep
	s.owners[ep.ID()] = rank
	var down []int
	for pair := range s.cut {
		if pair[0] == rank {
			down = append(down, pair[1])
		}
	}
	s.mu.Unlock()
	for _, peer := range down {
		ep.ReportPeerDown(peer, fabric.ErrCut)
	}
	return ep, nil
}

// cutOff reports the verdict on the owner of dst to every link of rank,
// the first time a post of rank's meets a permanent cut toward or from
// it.
func (s *Sim) cutOff(rank int, dst fabric.EndpointID) {
	s.mu.Lock()
	peer, ok := s.owners[dst]
	pair := [2]int{rank, peer}
	if !ok || s.cut[pair] {
		s.mu.Unlock()
		return
	}
	s.cut[pair] = true
	var eps []*nic.Endpoint
	for k, ep := range s.eps {
		if k[0] == rank {
			eps = append(eps, ep)
		}
	}
	s.mu.Unlock()
	for _, ep := range eps {
		ep.ReportPeerDown(peer, fabric.ErrCut)
	}
}

// EndpointOf returns the endpoint AddLink attached for (rank, vci), or
// -1 when there is none yet.
func (s *Sim) EndpointOf(rank, vci int) fabric.EndpointID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep, ok := s.eps[[2]int{rank, vci}]; ok {
		return ep.ID()
	}
	return -1
}

// RankOfEndpoint returns the rank whose AddLink attached ep, or -1.
func (s *Sim) RankOfEndpoint(ep fabric.EndpointID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.owners[ep]; ok {
		return r
	}
	return -1
}

// NodeOf returns the simulated node a rank's links attach to.
func (s *Sim) NodeOf(rank int) int { return s.nodeOf(rank) }

// Multiprocess reports false: all ranks share this process.
func (s *Sim) Multiprocess() bool { return false }

// SetCodec installs the codec every endpoint's posts cross — the links
// added so far and those added later.
func (s *Sim) SetCodec(c nic.Codec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.codec = c
	for _, ep := range s.eps {
		ep.SetCodec(c)
	}
}

// SetClock and Start are no-ops: the fabric runs on the clock it was
// built with and delivers from the moment a link attaches.
func (s *Sim) SetClock(timing.Clock) {}
func (s *Sim) Start() error          { return nil }

// PeerReader returns nil: simulated ranks exchange every byte over the
// fabric.
func (s *Sim) PeerReader(rank int) PeerReader { return nil }

// Close stops the fabric scheduler.
func (s *Sim) Close() error {
	s.net.Stop()
	return nil
}
