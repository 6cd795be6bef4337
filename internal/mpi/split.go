package mpi

import (
	"sort"

	"gompix/internal/datatype"
)

// splitMember is one rank's (color, key) contribution to a Split.
type splitMember struct{ color, key, rank int }

// Split partitions the communicator by color (MPI_Comm_split): ranks
// passing the same color form a new communicator, ordered by key and
// then by current rank. A negative color (MPI_UNDEFINED) returns nil.
// Collective over c.
func (c *Comm) Split(color, key int) *Comm {
	// Exchange (color, key) pairs via allgather on the parent.
	pairs := make([]byte, 8*c.Size())
	mine := encodePair(color, key)
	copy(pairs[c.rank*8:], mine)
	c.Allgather(mine, 8, datatype.Byte, pairs)

	var group []splitMember
	for r := 0; r < c.Size(); r++ {
		cr, kr := decodePair(pairs[r*8 : r*8+8])
		if cr == color && color >= 0 {
			group = append(group, splitMember{cr, kr, r})
		}
	}
	if c.proc.world.remote {
		// Multiprocess: no shared memory to rendezvous through — agree
		// on context ids with a second allgather over the parent. Every
		// rank (even color < 0) must participate.
		return c.splitRemote(pairs, color, group)
	}
	// All ranks must participate in the collective creation calls in
	// the same order, even those that end up with no new communicator;
	// derive a consistent creation below via joinCommGroup keyed on the
	// parent plus the split ordinal plus the color.
	if color < 0 {
		// Still consume a creation sequence number so subsequent
		// collective creations stay aligned across ranks.
		c.nextSeq()
		return nil
	}
	ranks, _, newRank := splitGroup(c, group, color)
	// Rendezvous per color: embed the color into the group key (in a
	// namespace disjoint from plain creations, via the high context
	// bit), so different colors create different communicators.
	seq := c.nextSeq()
	key2 := groupKey{parentCtx: c.ctx | 1<<31, seq: seq*4096 + color}
	g := c.proc.world.joinCommGroup(key2, len(ranks), newRank, c.local)
	return c.proc.registerComm(&Comm{
		proc:  c.proc,
		rank:  newRank,
		ranks: ranks,
		ctx:   g.ctx,
		eps:   epsOf(g.vcis),
		local: c.local,
	})
}

// splitGroup orders one color's members by (key, parent rank) and
// returns their world ranks, their parent-communicator ranks, and the
// caller's position.
func splitGroup(c *Comm, group []splitMember, color int) (ranks, members []int, newRank int) {
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	newRank = -1
	ranks = make([]int, len(group))
	members = make([]int, len(group))
	for i, m := range group {
		ranks[i] = c.ranks[m.rank]
		members[i] = m.rank
		if m.rank == c.rank {
			newRank = i
		}
	}
	return ranks, members, newRank
}

func encodePair(color, key int) []byte {
	out := make([]byte, 8)
	putInt32 := func(b []byte, v int) {
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
	}
	putInt32(out, color)
	putInt32(out[4:], key)
	return out
}

func decodePair(b []byte) (color, key int) {
	getInt32 := func(b []byte) int {
		return int(int32(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24))
	}
	return getInt32(b), getInt32(b[4:])
}
