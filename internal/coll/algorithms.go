package coll

// Collective algorithms, mirroring MPICH's defaults. Every constructor
// returns an unstarted Schedule; the caller starts it on a stream
// (Schedule.Start), where it runs as an async thing. Reduction steps
// receive closures so the package stays independent of datatype/operator
// details.
//
// A builder takes the caller's buffer in place (inout is both the
// contribution and the result) and binds it; Schedule.Bind separates
// the two per run. The reductions keep them apart: a rank sends its
// contribution straight from In until it has folded something; its
// first received contribution lands in Out and In is folded into it
// (Schedule.firstLanding — in scratch when In is Out), and it sends and
// folds in Out from then on; a rank that only receives the result
// receives it into Out. No rank copies In to Out but one that neither
// folds nor receives (Schedule.settle).
//
// The stage contract on buffers: a Send hands its buffer to the
// transport, which may read it until the send completes (no private
// copy on a byte transport). A strict stage completes only when its
// sends have, so a later stage may reduce into, or receive into, a
// buffer an earlier stage sent — and so may the next run of a reused
// schedule (Reset). Within one stage, sends and receives touch disjoint
// bytes. Only RelaxedAllreduce folds while it sends, and it sends a
// snapshot taken at build time.

// Barrier builds a dissemination barrier: ceil(log2 p) rounds, round k
// exchanging zero-byte messages with ranks ±2^k.
func Barrier(tr Transport, tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		dst := (r + mask) % p
		src := (r - mask + p) % p
		s.AddStage(Send(nil, dst, tag), Recv(nil, src, tag))
	}
	return s
}

// Bcast builds a binomial-tree broadcast of buf from root.
func Bcast(tr Transport, buf []byte, root, tag int) *Schedule {
	s := newSchedule(tr, buf)
	bcastTree(s, tr, len(buf), ranks(tr.Size()), root, tag)
	return s
}

// ranks is the member list of a whole group of p: 0, 1, …, p-1.
func ranks(p int) []int {
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	return members
}

// Reduce builds a binomial-tree reduction into inout at root. Every
// rank passes its contribution in inout; on non-roots the buffer is
// scratch after completion. reduce must be commutative.
func Reduce(tr Transport, inout []byte, reduce func(inout, in []byte), root, tag int) *Schedule {
	s := newSchedule(tr, inout)
	p, r := tr.Size(), tr.Rank()
	n := len(inout)
	vr := (r - root + p) % p
	all := s.out(0, n)
	var tmp ref
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			dst := ((vr &^ mask) + root) % p
			s.AddStage(send(s.partial(0, n), dst, tag))
			break
		}
		src := vr | mask
		if src < p {
			if tmp.n == 0 {
				tmp = s.scratch(n)
			}
			land, with := s.landing(all, tmp)
			s.AddStage(recv(land, (src+root)%p, tag))
			s.AddStage(s.fold(all, with, reduce))
		}
	}
	if r == root {
		s.settle()
	}
	return s
}

// AllreduceLongBytes is the message size from which an allreduce
// takes its long-message schedule: the ring on a flat communicator (as
// MPICH does), the leaders' reduce + broadcast in Hier.Allreduce.
const AllreduceLongBytes = 16 * 1024

// AllreduceRecDbl builds the recursive-doubling allreduce (Ruefenacht
// et al. [9] in the paper; MPICH's default for short messages) over
// every rank. inout holds the local contribution and receives the
// global result.
func AllreduceRecDbl(tr Transport, inout []byte, reduce func(inout, in []byte), tag int) *Schedule {
	s := newSchedule(tr, inout)
	recDbl(s, tr, len(inout), reduce, ranks(tr.Size()), tag)
	s.settle()
	return s
}

// recDbl appends recursive-doubling stages over members that leave the
// reduction of their n-byte partials in each member's Out. For a count
// that is not a power of two, MPICH's fold-in: each even one of the
// first 2*rem members hands its partial to its odd neighbour, sits the
// rounds out and gets the result back. Ranks outside members add nothing.
func recDbl(s *Schedule, tr Transport, n int, reduce func(inout, in []byte), members []int, tag int) {
	me, p := indexOf(members, tr.Rank()), len(members)
	if me < 0 || p < 2 {
		return
	}
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	all := s.out(0, n)
	if me < 2*rem && me%2 == 0 {
		s.AddStage(send(s.partial(0, n), members[me+1], tag))
		s.AddStage(recv(s.received(all), members[me+1], tag))
		return
	}
	tmp := s.scratch(n) // one landing buffer: each fold ends before the next receive
	newrank := me - rem
	if me < 2*rem {
		land, with := s.landing(all, tmp)
		s.AddStage(recv(land, members[me-1], tag))
		s.AddStage(s.fold(all, with, reduce))
		newrank = me / 2
	}
	for mask := 1; mask < pof2; mask <<= 1 {
		partnerNew := newrank ^ mask
		partner := partnerNew + rem
		if partnerNew < rem {
			partner = partnerNew*2 + 1
		}
		mine := s.partial(0, n) // before landing, which moves the partial to Out
		land, with := s.landing(all, tmp)
		s.AddStage(send(mine, members[partner], tag), recv(land, members[partner], tag))
		s.AddStage(s.fold(all, with, reduce))
	}
	if me < 2*rem {
		s.AddStage(send(all, members[me-1], tag))
	}
}

// AllreduceRing builds the ring (reduce-scatter + allgather) allreduce
// used for long messages. elemSize aligns block boundaries so
// reductions never split an element. Requires len(inout) >= p*elemSize.
func AllreduceRing(tr Transport, inout []byte, elemSize int, reduce func(inout, in []byte), tag int) *Schedule {
	s := newSchedule(tr, inout)
	p, r := tr.Size(), tr.Rank()
	if p == 1 {
		s.settle()
		return s
	}
	n := len(inout) / elemSize
	// Block b covers elements [b*n/p, (b+1)*n/p).
	blockOf := func(b int) (lo, hi int) {
		return b * n / p * elemSize, (b + 1) * n / p * elemSize
	}
	right := (r + 1) % p
	left := (r - 1 + p) % p
	// The landing buffer of a run in place, as long as the longest block.
	tmp := s.scratch(((n + p - 1) / p) * elemSize)

	// Reduce-scatter phase: after p-1 rounds rank r owns the fully
	// reduced block (r+1) mod p. The first round sends the caller's
	// contribution; every round's receive is the first fold into its
	// block, so it lands in that block of Out.
	for k := 0; k < p-1; k++ {
		sendIdx := (r - k + p) % p
		recvIdx := (r - k - 1 + p) % p
		slo, shi := blockOf(sendIdx)
		rlo, rhi := blockOf(recvIdx)
		mine, block := s.partial(slo, shi-slo), s.out(rlo, rhi-rlo)
		land, with := s.firstLanding(block, tmp)
		s.AddStage(send(mine, right, tag), recv(land, left, tag))
		s.AddStage(s.fold(block, with, reduce))
	}
	// Allgather phase: circulate the reduced blocks.
	for k := 0; k < p-1; k++ {
		sendIdx := (r + 1 - k + p) % p
		recvIdx := (r - k + p) % p
		slo, shi := blockOf(sendIdx)
		rlo, rhi := blockOf(recvIdx)
		s.AddStage(send(s.out(slo, shi-slo), right, tag), recv(s.out(rlo, rhi-rlo), left, tag))
	}
	return s
}

// AllgatherRing builds the ring allgather: buf holds p blocks of bs
// bytes; the caller's own block (at rank*bs) is the contribution.
func AllgatherRing(tr Transport, buf []byte, bs, tag int) *Schedule {
	s := newSchedule(tr, buf)
	p, r := tr.Size(), tr.Rank()
	right := (r + 1) % p
	left := (r - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sendIdx := (r - k + p) % p
		recvIdx := (r - k - 1 + p) % p
		s.AddStage(send(s.out(sendIdx*bs, bs), right, tag), recv(s.out(recvIdx*bs, bs), left, tag))
	}
	return s
}

// Alltoall builds the pairwise-exchange all-to-all: sendBuf and recvBuf
// hold p blocks of bs bytes each.
func Alltoall(tr Transport, sendBuf, recvBuf []byte, bs, tag int) *Schedule {
	s := NewSchedule(tr)
	s.Bind(sendBuf, recvBuf)
	p, r := tr.Size(), tr.Rank()
	in := func(b int) ref { return ref{slot: slotIn, off: b * bs, n: bs} }
	own, mine := in(r), s.out(r*bs, bs)
	s.AddStage(Local(func() { copy(s.at(mine), s.at(own)) }))
	for k := 1; k < p; k++ {
		dst := (r + k) % p
		src := (r - k + p) % p
		s.AddStage(send(in(dst), dst, tag), recv(s.out(src*bs, bs), src, tag))
	}
	return s
}

// Gather builds a linear gather of bs-byte blocks to root. sendBlock is
// this rank's contribution; recvBuf (root only) holds p blocks.
func Gather(tr Transport, sendBlock, recvBuf []byte, bs, root, tag int) *Schedule {
	s := NewSchedule(tr)
	s.Bind(sendBlock, recvBuf)
	p, r := tr.Size(), tr.Rank()
	own := ref{slot: slotIn, n: bs}
	if r != root {
		s.AddStage(send(own, root, tag))
		return s
	}
	mine := s.out(root*bs, bs)
	ops := []Op{Local(func() { copy(s.at(mine), s.at(own)) })}
	for src := 0; src < p; src++ {
		if src != root {
			ops = append(ops, recv(s.out(src*bs, bs), src, tag))
		}
	}
	s.AddStage(ops...)
	return s
}

// Scatter builds a linear scatter of bs-byte blocks from root. recvBlock
// receives this rank's block; sendBuf (root only) holds p blocks.
func Scatter(tr Transport, sendBuf, recvBlock []byte, bs, root, tag int) *Schedule {
	s := NewSchedule(tr)
	s.Bind(sendBuf, recvBlock)
	p, r := tr.Size(), tr.Rank()
	mine := s.out(0, bs)
	if r != root {
		s.AddStage(recv(mine, root, tag))
		return s
	}
	own := ref{slot: slotIn, off: root * bs, n: bs}
	ops := []Op{Local(func() { copy(s.at(mine), s.at(own)) })}
	for dst := 0; dst < p; dst++ {
		if dst != root {
			ops = append(ops, send(ref{slot: slotIn, off: dst * bs, n: bs}, dst, tag))
		}
	}
	s.AddStage(ops...)
	return s
}

// Scan builds an inclusive prefix reduction: after completion, inout on
// rank r holds the reduction of contributions from ranks 0..r.
func Scan(tr Transport, inout []byte, reduce func(inout, in []byte), tag int) *Schedule {
	s := newSchedule(tr, inout)
	p, r := tr.Size(), tr.Rank()
	n := len(inout)
	if r > 0 {
		all := s.out(0, n)
		land, with := s.landing(all, s.scratch(n))
		s.AddStage(recv(land, r-1, tag))
		s.AddStage(s.fold(all, with, reduce))
	}
	if r < p-1 {
		s.AddStage(send(s.partial(0, n), r+1, tag))
	}
	s.settle()
	return s
}
