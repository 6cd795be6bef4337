package coll

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// sumBytes is the sequential reference of addByte over inputs.
func sumBytes(inputs [][]byte) []byte {
	out := make([]byte, len(inputs[0]))
	for _, in := range inputs {
		addByte(out, in)
	}
	return out
}

// runBound builds each of p ranks' schedules once, over n bytes, and
// runs them three times the way a plan does — In and Out distinct,
// then in place (Bind(nil, out)), then distinct again — each run over
// fresh random contributions and an Out full of garbage. late, when not
// -1, is a rank left unpolled until the others have gone eight rounds,
// so its payload arrives after its siblings'. After each run In must be
// byte-identical to the contribution, and Out must equal want(r, inputs)
// wherever that is not nil.
func runBound(t *testing.T, p, n int, rng *rand.Rand, late int, build func(tr Transport, buf []byte) *Schedule, want func(r int, inputs [][]byte) []byte) error {
	t.Helper()
	ss := make([]*Schedule, p)
	for r, tr := range newMemNet(p) {
		ss[r] = build(tr, make([]byte, n))
	}
	for run, inPlace := range []bool{false, true, false} {
		inputs, ins, outs := make([][]byte, p), make([][]byte, p), make([][]byte, p)
		for r, s := range ss {
			inputs[r] = make([]byte, n)
			rng.Read(inputs[r])
			outs[r] = bytes.Repeat([]byte{0xA5}, n)
			if inPlace {
				copy(outs[r], inputs[r])
				s.Bind(nil, outs[r])
			} else {
				ins[r] = bytes.Clone(inputs[r])
				s.Bind(ins[r], outs[r])
			}
			s.Reset(run + 1)
		}
		for round := 0; round < 8 && late >= 0; round++ {
			for r, s := range ss {
				if r != late {
					s.Poll()
				}
			}
		}
		drive(t, ss)
		for r, s := range ss {
			if err := s.Err(); err != nil {
				return fmt.Errorf("run %d rank %d: %v", run, r, err)
			}
			if !inPlace && !bytes.Equal(ins[r], inputs[r]) {
				return fmt.Errorf("run %d rank %d: In changed", run, r)
			}
			if w := want(r, inputs); w != nil && !bytes.Equal(outs[r], w) {
				return fmt.Errorf("run %d (in place %v) rank %d: Out %v, want %v", run, inPlace, r, outs[r], w)
			}
		}
	}
	return nil
}

// everyRank wants the reduction of all contributions on every rank.
func everyRank(_ int, inputs [][]byte) []byte { return sumBytes(inputs) }

// rootOnly wants the reduction of all contributions on root alone.
func rootOnly(root int) func(int, [][]byte) []byte {
	return func(r int, inputs [][]byte) []byte {
		if r != root {
			return nil
		}
		return sumBytes(inputs)
	}
}

// TestFirstFoldReduce: a binomial Reduce and a Scan fold a rank's
// contribution In into the first payload it receives, which lands in
// Out, and leave In as it was; in place the first payload lands in
// scratch. Every root's result, and every rank's prefix, equals the
// sequential reference.
func TestFirstFoldReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for p := 1; p <= 7; p++ {
		for root := 0; root < p; root++ {
			build := func(tr Transport, buf []byte) *Schedule { return Reduce(tr, buf, addByte, root, 0) }
			if err := runBound(t, p, 13, rng, -1, build, rootOnly(root)); err != nil {
				t.Fatalf("reduce p=%d root=%d: %v", p, root, err)
			}
		}
		build := func(tr Transport, buf []byte) *Schedule { return Scan(tr, buf, addByte, 0) }
		prefix := func(r int, inputs [][]byte) []byte { return sumBytes(inputs[:r+1]) }
		if err := runBound(t, p, 13, rng, -1, build, prefix); err != nil {
			t.Fatalf("scan p=%d: %v", p, err)
		}
	}
}

// TestFirstFoldHier: the two-level Allreduce and Reduce under the
// first-fold rule, on layouts with a node of at least four ranks — so
// a rank has two children in one stage — with that rank's first child
// held back until its second child's payload is in: the second must
// wait for the first to fold In before it folds.
func TestFirstFoldHier(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nodes := range [][]int{
		{0, 0, 0, 0, 1},
		{0, 0, 0, 0, 1, 1, 1, 1},
		{0, 0, 1, 1, 2, 2, 2, 1},
	} {
		h, p := NewHier(nodes), len(nodes)
		for _, late := range []int{-1, 1} {
			build := func(tr Transport, buf []byte) *Schedule { return h.Allreduce(tr, buf, addByte, 0) }
			if err := runBound(t, p, 11, rng, late, build, everyRank); err != nil {
				t.Fatalf("allreduce nodes=%v late=%d: %v", nodes, late, err)
			}
			for root := 0; root < p; root++ {
				build := func(tr Transport, buf []byte) *Schedule { return h.Reduce(tr, buf, addByte, root, 0) }
				if err := runBound(t, p, 11, rng, late, build, rootOnly(root)); err != nil {
					t.Fatalf("reduce nodes=%v root=%d late=%d: %v", nodes, root, late, err)
				}
			}
		}
	}
}
