package mpi

import (
	"encoding/binary"
	"sort"

	"gompix/internal/datatype"
	"gompix/internal/fabric"
)

// splitMember is one rank's contribution to a Split: its sort key and
// its rank in the parent.
type splitMember struct{ key, rank int }

// Split partitions the communicator by color (MPI_Comm_split): ranks
// passing the same color form a new communicator, ordered by key and
// then by current rank. A negative color (MPI_UNDEFINED) returns nil.
// Collective over c: every rank, even one passing a negative color,
// takes part in the allgather.
//
// One allgather exchanges every rank's (color, key) and context-id
// candidate: the group agrees on the largest candidate as a base (see
// the agreement note in comm.go), and each color takes a deterministic
// offset from it. The new communicator reuses the parent's endpoints
// (Split binds the same local VCI), so no endpoint exchange is needed.
func (c *Comm) Split(color, key int) *Comm {
	w := c.proc.world
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint32(mine, uint32(int32(color)))
	binary.LittleEndian.PutUint32(mine[4:], uint32(int32(key)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(w.reserveCtx()))
	all := make([]byte, 16*c.Size())
	c.Allgather(mine, 16, datatype.Byte, all)

	// Deterministic per-color offsets: sorted unique non-negative colors.
	base := uint32(0)
	var group []splitMember
	colorSet := make(map[int]bool)
	for r := 0; r < c.Size(); r++ {
		rec := all[r*16:]
		base = max(base, uint32(binary.LittleEndian.Uint64(rec[8:])))
		cr := int(int32(binary.LittleEndian.Uint32(rec)))
		if cr < 0 {
			continue
		}
		colorSet[cr] = true
		if cr == color {
			group = append(group, splitMember{int(int32(binary.LittleEndian.Uint32(rec[4:]))), r})
		}
	}
	colors := make([]int, 0, len(colorSet))
	for cr := range colorSet {
		colors = append(colors, cr)
	}
	sort.Ints(colors)
	w.skipCtx(base + 2*uint32(len(colors)))
	if color < 0 {
		return nil
	}

	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	sub := &Comm{
		proc:  c.proc,
		ranks: make([]int, len(group)),
		ctx:   base + 2*uint32(sort.SearchInts(colors, color)),
		eps:   make([]fabric.EndpointID, len(group)),
		local: c.local,
	}
	for i, m := range group {
		sub.ranks[i] = c.ranks[m.rank]
		sub.eps[i] = c.eps[m.rank]
		if m.rank == c.rank {
			sub.rank = i
		}
	}
	return c.proc.registerComm(sub)
}
