package coll

// Hierarchical (node-aware) collectives: when the transport knows the
// physical placement of ranks, a rooted collective decomposes into an
// intra-node phase over cheap shared-memory links and an inter-node
// phase among one leader per node over the network. This is the
// classic two-level scheme MPICH selects on multi-node jobs — crossing
// the network min(nodes) times instead of O(p) times.
//
// All trees here are binomial trees generalized over an arbitrary
// member list (comm ranks), so node groups of any size and any rank
// composition work. A rank not in the member list contributes no
// stages — callers simply build every phase and each rank keeps the
// ones it participates in, which preserves the schedule-stage ordering
// the phases rely on (a leader must finish the inter-node phase before
// relaying intra-node).

// Hier is a placement map's node decomposition: comm ranks split into
// per-node member lists (nodeOf maps comm rank -> node id), groups
// ordered by first appearance so every rank derives the identical
// decomposition. The MPI layer computes it once per communicator and
// builds every two-level schedule over it.
type Hier struct {
	nodeOf  []int
	groups  [][]int
	leaders []int // each group's first member
}

// NewHier decomposes the placement map nodeOf.
func NewHier(nodeOf []int) *Hier {
	h := &Hier{nodeOf: nodeOf}
	idx := make(map[int]int)
	for r, node := range nodeOf {
		g, ok := idx[node]
		if !ok {
			g = len(h.groups)
			idx[node] = g
			h.groups = append(h.groups, nil)
			h.leaders = append(h.leaders, r)
		}
		h.groups[g] = append(h.groups[g], r)
	}
	return h
}

// groupOf finds the index of the group containing comm rank r.
func (h *Hier) groupOf(r int) int {
	for g, members := range h.groups {
		if h.nodeOf[members[0]] == h.nodeOf[r] {
			return g
		}
	}
	panic("coll: rank missing from its node group")
}

// leadersFor returns the node leaders of a phase rooted at root: each
// node's first member, except the root's node whose leader is the root
// itself (rooted phases then need no extra leader→root hop).
func (h *Hier) leadersFor(root int) []int {
	g := h.groupOf(root)
	if h.leaders[g] == root {
		return h.leaders
	}
	leaders := append([]int(nil), h.leaders...)
	leaders[g] = root
	return leaders
}

// HierWorthwhile reports whether the placement map makes the two-level
// scheme meaningful: at least two nodes (an inter phase exists) and at
// least one multi-rank node (an intra phase exists). One rank per node
// degenerates to the flat algorithm; one node total is all-local and
// the flat algorithm already runs entirely over shared memory.
func HierWorthwhile(nodeOf []int) bool {
	if len(nodeOf) < 3 {
		return false
	}
	multi := false
	first := nodeOf[0]
	oneNode := true
	seen := make(map[int]int)
	for _, node := range nodeOf {
		seen[node]++
		if seen[node] > 1 {
			multi = true
		}
		if node != first {
			oneNode = false
		}
	}
	return multi && !oneNode
}

// indexOf returns r's position in members, or -1.
func indexOf(members []int, r int) int {
	for i, m := range members {
		if m == r {
			return i
		}
	}
	return -1
}

// bcastTree appends binomial broadcast stages of the n-byte partial
// result over members, rooted at members[rootIdx]: the root sends what
// it holds, every other member receives into Out and relays it. Ranks
// outside members add nothing.
func bcastTree(s *Schedule, tr Transport, n int, members []int, rootIdx, tag int) {
	me := indexOf(members, tr.Rank())
	if me < 0 || len(members) < 2 {
		return
	}
	p := len(members)
	vr := (me - rootIdx + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			src := members[(vr-mask+rootIdx)%p]
			s.AddStage(recv(s.received(s.out(0, n)), src, tag))
			break
		}
		mask <<= 1
	}
	var sends []Op
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < p {
			sends = append(sends, send(s.partial(0, n), members[(vr+mask+rootIdx)%p], tag))
		}
	}
	s.AddStage(sends...)
}

// reduceTree binds inout as the schedule's contribution and result and
// appends binomial reduction stages of it over members into
// members[rootIdx]. Non-root members' result buffer is scratch after
// the phase. reduce must be commutative.
//
// All of a rank's child receives post together in ONE stage, each
// folding into Out the moment its payload lands (RecvReduce), so a rank
// with k children overlaps the k transfers instead of serializing k
// recv→reduce round-trips. When child 0's fold is the rank's first, its
// payload lands in Out and In folds into it (Schedule.firstLanding);
// the other children land in scratch and fold once child 0 has. The
// send toward the parent sits in its own following stage: it issues
// only after every child has folded, so it captures the fully reduced
// subtree — or, from a leaf, the contribution itself, straight from In.
func reduceTree(s *Schedule, tr Transport, inout []byte, reduce func(inout, in []byte), members []int, rootIdx, tag int) {
	s.Bind(inout, inout)
	me := indexOf(members, tr.Rank())
	if me < 0 || len(members) < 2 {
		return
	}
	n := len(inout)
	p := len(members)
	vr := (me - rootIdx + p) % p
	all := s.out(0, n)
	first := s.acc == slotIn
	var recvs []Op
	var head *recvReduceOp
	dst := -1
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			dst = members[((vr&^mask)+rootIdx)%p]
			break
		}
		if src := vr | mask; src < p {
			land, with := s.landing(all, s.scratch(n))
			op := recvReduce(land, members[(src+rootIdx)%p], tag, func([]byte) { reduce(s.at(all), s.at(with)) })
			if head == nil {
				head = op
			} else if first {
				op.after = head
			}
			recvs = append(recvs, op)
		}
	}
	s.AddStage(recvs...)
	if dst >= 0 {
		s.AddStage(send(s.partial(0, n), dst, tag))
	}
}

// Bcast builds the two-level broadcast: root fans out to the other
// node leaders over the network, then every leader relays within its
// node over shared memory.
func (h *Hier) Bcast(tr Transport, buf []byte, root, tag int) *Schedule {
	s := newSchedule(tr, buf)
	leaders := h.leadersFor(root)
	bcastTree(s, tr, len(buf), leaders, indexOf(leaders, root), tag)
	g := h.groupOf(tr.Rank())
	bcastTree(s, tr, len(buf), h.groups[g], indexOf(h.groups[g], leaders[g]), tag)
	return s
}

// Reduce builds the two-level reduction into root: each node reduces
// onto its leader over shared memory, then the leaders reduce onto
// root over the network. Non-root inout is scratch afterwards.
func (h *Hier) Reduce(tr Transport, inout []byte, reduce func(inout, in []byte), root, tag int) *Schedule {
	s := NewSchedule(tr)
	leaders := h.leadersFor(root)
	g := h.groupOf(tr.Rank())
	reduceTree(s, tr, inout, reduce, h.groups[g], indexOf(h.groups[g], leaders[g]), tag)
	reduceTree(s, tr, inout, reduce, leaders, indexOf(leaders, root), tag)
	if tr.Rank() == root {
		s.settle()
	}
	return s
}

// Allreduce builds the two-level allreduce: intra-node reduce to
// leaders, inter-leader reduce to the first leader then broadcast back
// across the leaders, and an intra-node broadcast to finish. Four
// phases, but only the middle two touch the network. No rank copies
// its contribution: a leaf sends it straight from In and receives the
// result into Out, and a rank with children folds In into the first
// child's payload, which lands in Out.
func (h *Hier) Allreduce(tr Transport, inout []byte, reduce func(inout, in []byte), tag int) *Schedule {
	s := NewSchedule(tr)
	g := h.groupOf(tr.Rank())
	lead := indexOf(h.groups[g], h.leaders[g])
	reduceTree(s, tr, inout, reduce, h.groups[g], lead, tag)
	reduceTree(s, tr, inout, reduce, h.leaders, 0, tag)
	bcastTree(s, tr, len(inout), h.leaders, 0, tag)
	bcastTree(s, tr, len(inout), h.groups[g], lead, tag)
	s.settle()
	return s
}

// HierBcast is Hier.Bcast over a decomposition built for this call.
func HierBcast(tr Transport, buf []byte, root, tag int, nodeOf []int) *Schedule {
	return NewHier(nodeOf).Bcast(tr, buf, root, tag)
}

// HierReduce is Hier.Reduce over a decomposition built for this call.
func HierReduce(tr Transport, inout []byte, reduce func(inout, in []byte), root, tag int, nodeOf []int) *Schedule {
	return NewHier(nodeOf).Reduce(tr, inout, reduce, root, tag)
}

// HierAllreduce is Hier.Allreduce over a decomposition built for this
// call.
func HierAllreduce(tr Transport, inout []byte, reduce func(inout, in []byte), tag int, nodeOf []int) *Schedule {
	return NewHier(nodeOf).Allreduce(tr, inout, reduce, tag)
}
