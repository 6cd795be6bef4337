package coll

// Collective algorithms, mirroring MPICH's defaults. Every constructor
// returns an unstarted Schedule; the caller starts it on a stream
// (Schedule.Start), where it runs as an async thing. Reduction steps
// receive closures so the package stays independent of datatype/operator
// details.
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
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	vr := (r - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := (vr - mask + root) % p
			s.AddStage(Recv(buf, src, tag))
			break
		}
		mask <<= 1
	}
	// Relay to children, highest distance first (one stage: the sends
	// are independent once our copy has arrived).
	var sends []Op
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < p {
			dst := (vr + mask + root) % p
			sends = append(sends, Send(buf, dst, tag))
		}
	}
	s.AddStage(sends...)
	return s
}

// Reduce builds a binomial-tree reduction into inout at root. Every
// rank passes its contribution in inout; on non-roots the buffer is
// scratch after completion. reduce must be commutative.
func Reduce(tr Transport, inout []byte, reduce func(inout, in []byte), root, tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	vr := (r - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			dst := ((vr &^ mask) + root) % p
			s.AddStage(Send(inout, dst, tag))
			break
		}
		src := vr | mask
		if src < p {
			srcRank := (src + root) % p
			tmp := make([]byte, len(inout))
			s.AddStage(Recv(tmp, srcRank, tag))
			s.AddStage(Local(func() { reduce(inout, tmp) }))
		}
	}
	return s
}

// AllreduceRecDbl builds the recursive-doubling allreduce (Ruefenacht
// et al. [9] in the paper; MPICH's default for short messages),
// including the MPICH fold-in steps for non-power-of-two sizes.
// inout holds the local contribution and receives the global result.
func AllreduceRecDbl(tr Transport, inout []byte, reduce func(inout, in []byte), tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	if p == 1 {
		return s
	}
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2

	newrank := r - rem
	if r < 2*rem {
		if r%2 == 0 {
			// Fold out: contribute to the odd neighbor, collect the
			// result at the end.
			s.AddStage(Send(inout, r+1, tag))
			s.AddStage(Recv(inout, r+1, tag))
			return s
		}
		tmp := make([]byte, len(inout))
		s.AddStage(Recv(tmp, r-1, tag))
		s.AddStage(Local(func() { reduce(inout, tmp) }))
		newrank = r / 2
	}

	for mask := 1; mask < pof2; mask <<= 1 {
		partnerNew := newrank ^ mask
		partner := partnerNew + rem
		if partnerNew < rem {
			partner = partnerNew*2 + 1
		}
		tmp := make([]byte, len(inout))
		s.AddStage(Send(inout, partner, tag), Recv(tmp, partner, tag))
		s.AddStage(Local(func() { reduce(inout, tmp) }))
	}

	if r < 2*rem { // r is odd here (even ranks returned above)
		s.AddStage(Send(inout, r-1, tag))
	}
	return s
}

// AllreduceRing builds the ring (reduce-scatter + allgather) allreduce
// used for long messages. elemSize aligns block boundaries so
// reductions never split an element. Requires len(inout) >= p*elemSize.
func AllreduceRing(tr Transport, inout []byte, elemSize int, reduce func(inout, in []byte), tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	if p == 1 {
		return s
	}
	n := len(inout) / elemSize
	// Block b covers elements [b*n/p, (b+1)*n/p).
	blockOf := func(b int) (lo, hi int) {
		return b * n / p * elemSize, (b + 1) * n / p * elemSize
	}
	right := (r + 1) % p
	left := (r - 1 + p) % p

	// Reduce-scatter phase: after p-1 rounds rank r owns the fully
	// reduced block (r+1) mod p.
	for k := 0; k < p-1; k++ {
		sendIdx := (r - k + p) % p
		recvIdx := (r - k - 1 + p) % p
		slo, shi := blockOf(sendIdx)
		rlo, rhi := blockOf(recvIdx)
		tmp := make([]byte, rhi-rlo)
		s.AddStage(Send(inout[slo:shi], right, tag), Recv(tmp, left, tag))
		rl := rlo
		s.AddStage(Local(func() { reduce(inout[rl:rl+len(tmp)], tmp) }))
	}
	// Allgather phase: circulate the reduced blocks.
	for k := 0; k < p-1; k++ {
		sendIdx := (r + 1 - k + p) % p
		recvIdx := (r - k + p) % p
		slo, shi := blockOf(sendIdx)
		rlo, rhi := blockOf(recvIdx)
		s.AddStage(Send(inout[slo:shi], right, tag), Recv(inout[rlo:rhi], left, tag))
	}
	return s
}

// AllgatherRing builds the ring allgather: buf holds p blocks of bs
// bytes; the caller's own block (at rank*bs) is the contribution.
func AllgatherRing(tr Transport, buf []byte, bs, tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	right := (r + 1) % p
	left := (r - 1 + p) % p
	for k := 0; k < p-1; k++ {
		sendIdx := (r - k + p) % p
		recvIdx := (r - k - 1 + p) % p
		s.AddStage(
			Send(buf[sendIdx*bs:(sendIdx+1)*bs], right, tag),
			Recv(buf[recvIdx*bs:(recvIdx+1)*bs], left, tag),
		)
	}
	return s
}

// Alltoall builds the pairwise-exchange all-to-all: sendBuf and recvBuf
// hold p blocks of bs bytes each.
func Alltoall(tr Transport, sendBuf, recvBuf []byte, bs, tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	s.AddStage(Local(func() {
		copy(recvBuf[r*bs:(r+1)*bs], sendBuf[r*bs:(r+1)*bs])
	}))
	for k := 1; k < p; k++ {
		dst := (r + k) % p
		src := (r - k + p) % p
		s.AddStage(
			Send(sendBuf[dst*bs:(dst+1)*bs], dst, tag),
			Recv(recvBuf[src*bs:(src+1)*bs], src, tag),
		)
	}
	return s
}

// Gather builds a linear gather of bs-byte blocks to root. sendBlock is
// this rank's contribution; recvBuf (root only) holds p blocks.
func Gather(tr Transport, sendBlock, recvBuf []byte, bs, root, tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	if r != root {
		s.AddStage(Send(sendBlock, root, tag))
		return s
	}
	ops := []Op{Local(func() { copy(recvBuf[root*bs:(root+1)*bs], sendBlock) })}
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		ops = append(ops, Recv(recvBuf[src*bs:(src+1)*bs], src, tag))
	}
	s.AddStage(ops...)
	return s
}

// Scatter builds a linear scatter of bs-byte blocks from root. recvBlock
// receives this rank's block; sendBuf (root only) holds p blocks.
func Scatter(tr Transport, sendBuf, recvBlock []byte, bs, root, tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	if r != root {
		s.AddStage(Recv(recvBlock, root, tag))
		return s
	}
	ops := []Op{Local(func() { copy(recvBlock, sendBuf[root*bs:(root+1)*bs]) })}
	for dst := 0; dst < p; dst++ {
		if dst == root {
			continue
		}
		ops = append(ops, Send(sendBuf[dst*bs:(dst+1)*bs], dst, tag))
	}
	s.AddStage(ops...)
	return s
}

// Scan builds an inclusive prefix reduction: after completion, inout on
// rank r holds the reduction of contributions from ranks 0..r.
func Scan(tr Transport, inout []byte, reduce func(inout, in []byte), tag int) *Schedule {
	s := NewSchedule(tr)
	p, r := tr.Size(), tr.Rank()
	if r > 0 {
		tmp := make([]byte, len(inout))
		s.AddStage(Recv(tmp, r-1, tag))
		s.AddStage(Local(func() { reduce(inout, tmp) }))
	}
	if r < p-1 {
		s.AddStage(Send(inout, r+1, tag))
	}
	return s
}
