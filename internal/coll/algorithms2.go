package coll

// Long-message and tree-based collective algorithms, mirroring the
// alternatives MPICH selects by message size. The glue layer picks
// between these and the defaults in algorithms.go.

// BcastScatterAllgather builds MPICH's long-message broadcast: a
// binomial scatter of buf's blocks followed by a ring allgather. Works
// for any process count and any root.
func BcastScatterAllgather(tr Transport, buf []byte, root, tag int) *Schedule {
	s := newSchedule(tr, buf)
	p, r := tr.Size(), tr.Rank()
	if p == 1 {
		return s
	}
	n := len(buf)
	ss := (n + p - 1) / p // scatter block stride
	relr := (r - root + p) % p
	blockStart := func(rel int) int {
		off := rel * ss
		if off > n {
			off = n
		}
		return off
	}
	blockEnd := func(rel int) int {
		end := (rel + 1) * ss
		if end > n {
			end = n
		}
		return end
	}

	// Phase 1 — binomial scatter: after this phase, relative rank i
	// owns buf[i*ss : min((i+1)ss, n)) plus the ranges of the subtree
	// it still has to feed.
	currSize := 0
	if relr == 0 {
		currSize = n
	}
	mask := 1
	for mask < p {
		if relr&mask != 0 {
			src := (r - mask + p) % p
			recvSize := n - relr*ss
			if recvSize > 0 {
				if cap := mask * ss; recvSize > cap {
					recvSize = cap
				}
				s.AddStage(recv(s.out(relr*ss, recvSize), src, tag))
				currSize = recvSize
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if relr+mask < p {
			sendSize := currSize - ss*mask
			if sendSize > 0 {
				dst := (r + mask) % p
				off := ss * (relr + mask)
				s.AddStage(send(s.out(off, sendSize), dst, tag))
				currSize -= sendSize
			}
		}
	}

	// Phase 2 — ring allgather of the scattered blocks (relative block
	// indices, absolute byte ranges; empty tail blocks still flow as
	// zero-byte messages to keep the ring in lockstep).
	right := (r + 1) % p
	left := (r - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sendIdx := (relr - k + p) % p
		recvIdx := (relr - k - 1 + p) % p
		s.AddStage(
			send(s.out(blockStart(sendIdx), blockEnd(sendIdx)-blockStart(sendIdx)), right, tag),
			recv(s.out(blockStart(recvIdx), blockEnd(recvIdx)-blockStart(recvIdx)), left, tag),
		)
	}
	return s
}

// ReduceScatterBlock builds a pairwise-exchange reduce-scatter for
// commutative operators: inout holds p equal blocks of bs bytes; after
// completion, the caller's own block (at rank*bs) holds the reduction
// of that block across all ranks. Other blocks are unmodified inputs.
func ReduceScatterBlock(tr Transport, inout []byte, bs int, reduce func(inout, in []byte), tag int) *Schedule {
	s := newSchedule(tr, inout)
	p, r := tr.Size(), tr.Rank()
	my := s.out(r*bs, bs)
	tmp := s.scratch(bs)
	for k := 1; k < p; k++ {
		dst := (r + k) % p
		src := (r - k + p) % p
		// The other ranks' blocks are sent as contributed: a fold writes
		// only this rank's block.
		land, with := s.landing(my, tmp)
		s.AddStage(
			send(ref{slot: slotIn, off: dst * bs, n: bs}, dst, tag),
			recv(land, src, tag),
		)
		s.AddStage(s.fold(my, with, reduce))
	}
	return s
}

// GatherBinomial builds a binomial-tree gather: log p rounds instead of
// the linear algorithm's p-1 receives at the root. Subtree data is
// staged contiguously in relative-rank order; the root rotates it into
// rank order at the end.
func GatherBinomial(tr Transport, sendBlock, recvBuf []byte, bs, root, tag int) *Schedule {
	s := NewSchedule(tr)
	s.Bind(sendBlock, recvBuf)
	p, r := tr.Size(), tr.Rank()
	relr := (r - root + p) % p

	// staging holds blocks for relative ranks [relr, relr+subtree).
	maxSub := 1
	for maxSub < p {
		maxSub <<= 1
	}
	staging := s.scratch(maxSub * bs)
	blocks := func(lo, hi int) ref { return ref{slot: staging.slot, off: lo * bs, n: (hi - lo) * bs} }
	own, first := ref{slot: slotIn, n: bs}, blocks(0, 1)
	s.AddStage(Local(func() { copy(s.at(first), s.at(own)) }))

	curr := 1 // blocks currently held
	mask := 1
	for mask < p {
		if relr&mask != 0 {
			dst := ((relr - mask) + root) % p
			s.AddStage(send(blocks(0, curr), dst, tag))
			break
		}
		// Receive the child's subtree if the child exists.
		childRel := relr + mask
		if childRel < p {
			childBlocks := mask
			if childRel+childBlocks > p {
				childBlocks = p - childRel
			}
			s.AddStage(recv(blocks(curr, curr+childBlocks), (childRel+root)%p, tag))
			curr += childBlocks
		}
		mask <<= 1
	}
	if relr == 0 {
		s.AddStage(Local(func() {
			// staging holds relative ranks 0..p-1; rotate into rank order.
			out, st := s.at(s.out(0, p*bs)), s.at(staging)
			for rel := 0; rel < p; rel++ {
				abs := (rel + root) % p
				copy(out[abs*bs:(abs+1)*bs], st[rel*bs:(rel+1)*bs])
			}
		}))
	}
	return s
}

// ScatterBinomial builds a binomial-tree scatter, the inverse of
// GatherBinomial.
func ScatterBinomial(tr Transport, sendBuf, recvBlock []byte, bs, root, tag int) *Schedule {
	s := NewSchedule(tr)
	s.Bind(sendBuf, recvBlock)
	p, r := tr.Size(), tr.Rank()
	relr := (r - root + p) % p

	maxSub := 1
	for maxSub < p {
		maxSub <<= 1
	}
	staging := s.scratch(maxSub * bs)
	blocks := func(lo, hi int) ref { return ref{slot: staging.slot, off: lo * bs, n: (hi - lo) * bs} }

	if relr == 0 {
		s.AddStage(Local(func() {
			in, st := s.at(ref{slot: slotIn, n: p * bs}), s.at(staging)
			for rel := 0; rel < p; rel++ {
				abs := (rel + root) % p
				copy(st[rel*bs:(rel+1)*bs], in[abs*bs:(abs+1)*bs])
			}
		}))
	}
	// Receive my subtree's data from my parent.
	curr := p // root starts holding everything
	mask := 1
	for mask < p {
		if relr&mask != 0 {
			src := ((relr - mask) + root) % p
			curr = mask
			if relr+curr > p {
				curr = p - relr
			}
			s.AddStage(recv(blocks(0, curr), src, tag))
			break
		}
		mask <<= 1
	}
	// Send the upper halves of my range down the tree, largest first.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if relr+mask < p {
			childBlocks := mask
			if relr+mask+childBlocks > p {
				childBlocks = p - relr - mask
			}
			if childBlocks > 0 && curr > mask {
				dst := ((relr + mask) + root) % p
				s.AddStage(send(blocks(mask, mask+childBlocks), dst, tag))
				curr = mask
			}
		}
	}
	mine, first := s.out(0, bs), blocks(0, 1)
	s.AddStage(Local(func() { copy(s.at(mine), s.at(first)) }))
	return s
}
