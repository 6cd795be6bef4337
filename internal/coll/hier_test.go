package coll

import (
	"fmt"
	"math/rand"
	"testing"
)

// hierLayouts are placement maps worth exercising: uneven node sizes,
// interleaved assignment, a lone rank on its own node.
var hierLayouts = [][]int{
	{0, 0, 1, 1},
	{0, 0, 0, 1, 1, 1},
	{0, 1, 0, 1, 0, 1},       // interleaved: groups are non-contiguous
	{0, 0, 0, 0, 1},          // lopsided with a singleton node
	{2, 2, 0, 0, 1, 1, 2},    // ids out of order, three nodes
	{0, 0, 1, 1, 2, 2, 2, 1}, // eight ranks over three nodes
}

func TestHierWorthwhile(t *testing.T) {
	cases := []struct {
		nodes []int
		want  bool
	}{
		{[]int{0, 0, 0}, false},   // one node: flat already all-shm
		{[]int{0, 1, 2}, false},   // one rank per node: no intra phase
		{[]int{0, 1}, false},      // too small
		{[]int{0, 0, 1}, true},    // minimal two-level shape
		{[]int{0, 1, 0, 1}, true}, // interleaved
		{nil, false},              // no placement knowledge
	}
	for _, c := range cases {
		if got := HierWorthwhile(c.nodes); got != c.want {
			t.Errorf("HierWorthwhile(%v) = %v, want %v", c.nodes, got, c.want)
		}
	}
}

func TestHierBcast(t *testing.T) {
	for _, nodes := range hierLayouts {
		p := len(nodes)
		for root := 0; root < p; root++ {
			t.Run(fmt.Sprintf("nodes=%v/root=%d", nodes, root), func(t *testing.T) {
				trs := newMemNet(p)
				want := []byte{1, 2, 3, 4}
				bufs := make([][]byte, p)
				scheds := make([]*Schedule, p)
				for r := 0; r < p; r++ {
					bufs[r] = make([]byte, len(want))
					if r == root {
						copy(bufs[r], want)
					}
					scheds[r] = HierBcast(trs[r], bufs[r], root, 5, nodes)
				}
				drive(t, scheds)
				for r := 0; r < p; r++ {
					for i := range want {
						if bufs[r][i] != want[i] {
							t.Fatalf("rank %d got %v, want %v", r, bufs[r], want)
						}
					}
				}
			})
		}
	}
}

func TestHierReduce(t *testing.T) {
	for _, nodes := range hierLayouts {
		p := len(nodes)
		for root := 0; root < p; root++ {
			t.Run(fmt.Sprintf("nodes=%v/root=%d", nodes, root), func(t *testing.T) {
				trs := newMemNet(p)
				bufs := make([][]byte, p)
				scheds := make([]*Schedule, p)
				var want byte
				for r := 0; r < p; r++ {
					bufs[r] = []byte{byte(r + 1), byte(2 * (r + 1))}
					want += byte(r + 1)
					scheds[r] = HierReduce(trs[r], bufs[r], addByte, root, 5, nodes)
				}
				drive(t, scheds)
				if bufs[root][0] != want || bufs[root][1] != 2*want {
					t.Fatalf("root %d got %v, want [%d %d]", root, bufs[root], want, 2*want)
				}
			})
		}
	}
}

// TestHierAllreduce runs the two-level allreduce on every layout, on
// both sides of AllreduceLongBytes (the leaders exchange below it and
// reduce + broadcast from it on), each schedule three times as a plan
// does: In and Out distinct, in place, distinct again.
func TestHierAllreduce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, nodes := range hierLayouts {
		h, p := NewHier(nodes), len(nodes)
		t.Run(fmt.Sprintf("nodes=%v", nodes), func(t *testing.T) {
			for _, n := range []int{2, AllreduceLongBytes} {
				build := func(tr Transport, buf []byte) *Schedule { return h.Allreduce(tr, buf, addByte, 5) }
				if err := runBound(t, p, n, rng, -1, build, everyRank); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		})
	}
}

// TestHierAllreduceOneInterNodeRound counts, stage by stage, each
// rank's operations toward ranks on other nodes in a small two-level
// allreduce. A leader's stages that cross the network each hold one
// send and one receive with the same leader — the exchange of one
// recursive-doubling round — and there are log2(leaders) of them; a
// rank that leads no node posts nothing across. A leaders' phase that
// reduces onto one leader and broadcasts back receives and sends in
// two stages instead.
func TestHierAllreduceOneInterNodeRound(t *testing.T) {
	for _, nodes := range [][]int{{0, 0, 1, 1}, {0, 0, 1, 1, 2, 2, 3, 3}} {
		h := NewHier(nodes)
		rounds := 0
		for 1<<rounds < len(h.leaders) {
			rounds++
		}
		for r, tr := range newMemNet(len(nodes)) {
			s := h.Allreduce(tr, make([]byte, 8), addByte, 0)
			crossing := 0
			for i, st := range s.stages {
				sends, recvs, peers := 0, 0, map[int]bool{}
				for _, op := range st.ops {
					peer, isSend, ok := peerOf(op)
					if !ok || nodes[peer] == nodes[r] {
						continue
					}
					peers[peer] = true
					if isSend {
						sends++
					} else {
						recvs++
					}
				}
				if sends+recvs == 0 {
					continue
				}
				crossing++
				if sends != 1 || recvs != 1 || len(peers) != 1 {
					t.Errorf("nodes=%v rank %d stage %d: %d sends and %d receives across, to %d ranks; want one exchange with one leader", nodes, r, i, sends, recvs, len(peers))
				}
			}
			want := 0
			if indexOf(h.leaders, r) >= 0 {
				want = rounds
			}
			if crossing != want {
				t.Errorf("nodes=%v rank %d: %d stages cross the network, want %d", nodes, r, crossing, want)
			}
		}
	}
}

// peerOf names the rank a transport operation exchanges with and
// whether it sends; ok is false for a local step.
func peerOf(op Op) (peer int, isSend, ok bool) {
	switch o := op.(type) {
	case *sendOp:
		return o.dst, true, true
	case *recvOp:
		return o.src, false, true
	case *recvReduceOp:
		return o.src, false, true
	}
	return 0, false, false
}
