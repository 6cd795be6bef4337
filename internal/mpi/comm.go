package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gompix/internal/core"
	"gompix/internal/fabric"
)

// Comm is a communicator: an isolated matching context over a group of
// ranks. Stream communicators (StreamComm) bind a communicator to an
// MPIX stream, routing all of its traffic through that stream's VCI
// (paper §3.1).
type Comm struct {
	proc  *Proc
	rank  int   // this process's rank within the communicator
	ranks []int // communicator rank -> world rank
	ctx   uint32
	eps   []fabric.EndpointID // communicator rank -> that rank's endpoint address
	local *VCI                // this rank's VCI; eps[rank] is its endpoint

	seqMu sync.Mutex
	seq   int // per-parent communicator-creation counter

	collSeq atomic.Int64 // per-communicator collective invocation tags

	// topoOnce caches the node-placement map feeding the hierarchical
	// collectives (topology never changes within a world's lifetime).
	topoOnce  sync.Once
	topoNodes []int // comm rank -> node id; nil when hier is not worthwhile

	// fstate is the fault-tolerance state (ULFM revoke/shrink/agree);
	// zero value ready.
	fstate commFailState

	// relaxed is the per-comm round bookkeeping for IallreduceRelaxed
	// (round numbering, the straggler reorder window, the lag gate);
	// built on first use.
	relaxedOnce sync.Once
	relaxed     *relaxedState
}

// Rank returns the caller's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Proc returns the owning process.
func (c *Comm) Proc() *Proc { return c.proc }

// Stream returns the stream this communicator's operations progress on.
func (c *Comm) Stream() *core.Stream { return c.local.stream }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.ranks[r] }

// nextSeq returns the ordinal of the next collective creation call on
// this communicator, which must occur in the same order on all ranks.
func (c *Comm) nextSeq() int {
	c.seqMu.Lock()
	defer c.seqMu.Unlock()
	c.seq++
	return c.seq
}

// StreamComm creates a communicator whose operations are all
// associated with the given MPIX stream (MPIX_Stream_comm_create). Like
// its MPI counterpart this is collective: every rank of c must call it,
// in the same order relative to other creations on c. A nil stream
// keeps the NULL stream (yielding a plain duplicate).
func (c *Comm) StreamComm(s *core.Stream) *Comm {
	v := c.local
	if s != nil {
		v = c.proc.vciFor(s)
	}
	if c.proc.world.remote {
		return c.streamCommRemote(v)
	}
	key := groupKey{parentCtx: c.ctx, seq: c.nextSeq()}
	g := c.proc.world.joinCommGroup(key, c.Size(), c.rank, v)
	return c.proc.registerComm(&Comm{
		proc:  c.proc,
		rank:  c.rank,
		ranks: c.ranks,
		ctx:   g.ctx,
		eps:   epsOf(g.vcis),
		local: v,
	})
}

// epsOf collects the endpoint addresses of a full in-process VCI table.
func epsOf(vcis []*VCI) []fabric.EndpointID {
	eps := make([]fabric.EndpointID, len(vcis))
	for i, v := range vcis {
		eps[i] = v.ep.ID()
	}
	return eps
}

// Dup duplicates the communicator with a fresh context (MPI_Comm_dup).
// Collective.
func (c *Comm) Dup() *Comm { return c.StreamComm(nil) }

// checkRank panics on an out-of-range peer rank.
func (c *Comm) checkRank(r int) {
	if r < 0 || r >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range for communicator of size %d", r, len(c.ranks)))
	}
}
