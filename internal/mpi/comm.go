package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"gompix/internal/coll"
	"gompix/internal/core"
	"gompix/internal/datatype"
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

	collSeq atomic.Int64 // per-communicator collective invocation tags

	// topoOnce caches the node decomposition feeding the hierarchical
	// collectives (topology never changes within a world's lifetime).
	topoOnce sync.Once
	topoHier *coll.Hier // nil when hier is not worthwhile

	// plans holds the idle collective plans (coll.go).
	plans planCache

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

// Communicator creation is agreed over the wire, with collectives on
// the parent communicator — the standard MPI bootstrap pattern of
// deriving new communicators from collective calls on old ones — on
// every transport alike: context ids, and for a stream communicator
// every member's endpoint on the new VCI, travel in an allgather.
//
// Context-id agreement: each rank reserves a candidate pair
// (reserveCtx), the group takes the max, and every member moves its
// counter past the agreed top (skipCtx). Communicators sharing any
// member therefore never collide; disjoint communicators may reuse ids,
// which is harmless — they share no matching engine.

// reserveCtx takes this rank's candidate context-id pair for a
// communicator creation.
func (w *World) reserveCtx() uint32 {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	cand := w.nextCtx
	w.nextCtx += 2
	return cand
}

// skipCtx moves the candidate counter to at least top, the end of the
// context ids a creation agreed on.
func (w *World) skipCtx(top uint32) {
	w.ctxMu.Lock()
	if w.nextCtx < top {
		w.nextCtx = top
	}
	w.ctxMu.Unlock()
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
	// Allgather (candidate ctx, endpoint) pairs over the parent.
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine, uint64(c.proc.world.reserveCtx()))
	binary.LittleEndian.PutUint64(mine[8:], uint64(v.ep.ID()))
	all := make([]byte, 16*c.Size())
	c.Allgather(mine, 16, datatype.Byte, all)

	ctx := uint32(0)
	eps := make([]fabric.EndpointID, c.Size())
	for r := range eps {
		ctx = max(ctx, uint32(binary.LittleEndian.Uint64(all[r*16:])))
		eps[r] = fabric.EndpointID(binary.LittleEndian.Uint64(all[r*16+8:]))
	}
	c.proc.world.skipCtx(ctx + 2)
	return c.proc.registerComm(&Comm{
		proc:  c.proc,
		rank:  c.rank,
		ranks: c.ranks,
		ctx:   ctx,
		eps:   eps,
		local: v,
	})
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
