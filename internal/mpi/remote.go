package mpi

import (
	"encoding/binary"
	"sort"

	"gompix/internal/datatype"
	"gompix/internal/fabric"
)

// This file implements communicator creation for multiprocess worlds.
// In-process worlds rendezvous through shared memory (joinCommGroup);
// across OS processes the same agreement must travel over the wire, so
// context ids and endpoint addresses are exchanged with allgathers on
// the parent communicator — the standard MPI bootstrap pattern of
// deriving new communicators from collective calls on old ones.
//
// Context-id agreement: each rank reserves a candidate pair from its
// local counter, the group takes the max, and every member bumps its
// local counter past the agreed top. Communicators sharing any member
// therefore never collide; disjoint communicators may reuse ids, which
// is harmless — they share no matching engine.

// streamCommRemote is the multiprocess half of StreamComm: agree on a
// context pair and learn every peer's endpoint for the new VCI.
func (c *Comm) streamCommRemote(v *VCI) *Comm {
	c.nextSeq() // keep creation ordinals aligned with the in-process path
	w := c.proc.world
	w.ctxMu.Lock()
	cand := w.nextCtx
	w.nextCtx += 2
	w.ctxMu.Unlock()

	// Allgather (candidate ctx, endpoint) pairs over the parent.
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine, uint64(cand))
	binary.LittleEndian.PutUint64(mine[8:], uint64(v.ep.ID()))
	all := make([]byte, 16*c.Size())
	c.Allgather(mine, 16, datatype.Byte, all)

	ctx := uint32(0)
	eps := make([]fabric.EndpointID, c.Size())
	for r := 0; r < c.Size(); r++ {
		if cr := uint32(binary.LittleEndian.Uint64(all[r*16:])); cr > ctx {
			ctx = cr
		}
		eps[r] = fabric.EndpointID(binary.LittleEndian.Uint64(all[r*16+8:]))
	}
	w.ctxMu.Lock()
	if w.nextCtx < ctx+2 {
		w.nextCtx = ctx + 2
	}
	w.ctxMu.Unlock()

	return c.proc.registerComm(&Comm{
		proc:  c.proc,
		rank:  c.rank,
		ranks: c.ranks,
		ctx:   ctx,
		eps:   eps,
		local: v,
	})
}

// splitRemote is the multiprocess half of Split. The (color, key) pairs
// have already been gathered; one more allgather agrees on a base
// context id, and each color takes a deterministic offset from it. The
// new communicator reuses the parent's endpoints (Split binds the same
// local VCI), so no endpoint exchange is needed.
func (c *Comm) splitRemote(pairs []byte, color int, group []splitMember) *Comm {
	c.nextSeq() // keep creation ordinals aligned with the in-process path
	w := c.proc.world
	w.ctxMu.Lock()
	cand := w.nextCtx
	w.nextCtx += 2
	w.ctxMu.Unlock()

	mine := make([]byte, 8)
	binary.LittleEndian.PutUint64(mine, uint64(cand))
	all := make([]byte, 8*c.Size())
	c.Allgather(mine, 8, datatype.Byte, all)
	base := uint32(0)
	for r := 0; r < c.Size(); r++ {
		if v := uint32(binary.LittleEndian.Uint64(all[r*8:])); v > base {
			base = v
		}
	}

	// Deterministic per-color offsets: sorted unique non-negative colors.
	colorSet := make(map[int]bool)
	for r := 0; r < c.Size(); r++ {
		if cr, _ := decodePair(pairs[r*8 : r*8+8]); cr >= 0 {
			colorSet[cr] = true
		}
	}
	colors := make([]int, 0, len(colorSet))
	for cr := range colorSet {
		colors = append(colors, cr)
	}
	sort.Ints(colors)
	w.ctxMu.Lock()
	if top := base + 2*uint32(len(colors)); w.nextCtx < top {
		w.nextCtx = top
	}
	w.ctxMu.Unlock()
	if color < 0 {
		return nil
	}

	ctx := base + 2*uint32(sort.SearchInts(colors, color))
	ranks, members, newRank := splitGroup(c, group, color)
	eps := make([]fabric.EndpointID, len(members))
	for i, m := range members {
		eps[i] = c.eps[m]
	}
	return c.proc.registerComm(&Comm{
		proc:  c.proc,
		rank:  newRank,
		ranks: ranks,
		ctx:   ctx,
		eps:   eps,
		local: c.local,
	})
}
