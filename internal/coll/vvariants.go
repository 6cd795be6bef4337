package coll

// Variable-count ("v") collective algorithms: every rank may contribute
// a different block size. Offsets and lengths are in bytes within a
// shared wire layout that all ranks agree on.

// AllgatherVRing builds a ring allgather of variable-size blocks: rank
// r's contribution occupies buf[offs[r] : offs[r]+lens[r]] and every
// rank ends with all blocks. Zero-length blocks still circulate as
// empty messages to keep the ring in lockstep.
func AllgatherVRing(tr Transport, buf []byte, offs, lens []int, tag int) *Schedule {
	s := newSchedule(tr, buf)
	p, r := tr.Size(), tr.Rank()
	if len(offs) != p || len(lens) != p {
		panic("coll: offs/lens length must equal group size")
	}
	right := (r + 1) % p
	left := (r - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sendIdx := (r - k + p) % p
		recvIdx := (r - k - 1 + p) % p
		s.AddStage(
			send(s.out(offs[sendIdx], lens[sendIdx]), right, tag),
			recv(s.out(offs[recvIdx], lens[recvIdx]), left, tag),
		)
	}
	return s
}

// GatherV builds a linear variable-count gather to root: rank i's
// sendBlock (lens[i] bytes) lands at recvBuf[offs[i]] on root.
func GatherV(tr Transport, sendBlock, recvBuf []byte, offs, lens []int, root, tag int) *Schedule {
	s := NewSchedule(tr)
	s.Bind(sendBlock, recvBuf)
	p, r := tr.Size(), tr.Rank()
	own := ref{slot: slotIn, n: len(sendBlock)}
	if r != root {
		s.AddStage(send(own, root, tag))
		return s
	}
	mine := s.out(offs[root], lens[root])
	ops := []Op{Local(func() { copy(s.at(mine), s.at(own)) })}
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		ops = append(ops, recv(s.out(offs[src], lens[src]), src, tag))
	}
	s.AddStage(ops...)
	return s
}

// ScatterV builds a linear variable-count scatter from root: root's
// sendBuf[offs[i] : offs[i]+lens[i]] goes to rank i's recvBlock.
func ScatterV(tr Transport, sendBuf, recvBlock []byte, offs, lens []int, root, tag int) *Schedule {
	s := NewSchedule(tr)
	s.Bind(sendBuf, recvBlock)
	p, r := tr.Size(), tr.Rank()
	mine := s.out(0, len(recvBlock))
	if r != root {
		s.AddStage(recv(mine, root, tag))
		return s
	}
	in := func(i int) ref { return ref{slot: slotIn, off: offs[i], n: lens[i]} }
	own := in(root)
	ops := []Op{Local(func() { copy(s.at(mine), s.at(own)) })}
	for dst := 0; dst < p; dst++ {
		if dst == root {
			continue
		}
		ops = append(ops, send(in(dst), dst, tag))
	}
	s.AddStage(ops...)
	return s
}
