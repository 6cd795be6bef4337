package coll

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAllreduceVariantsEquivalence: recursive doubling and ring must
// compute exactly what a sequential reference reduction computes, for
// arbitrary inputs, group sizes, and element counts — with In and Out
// distinct, where the first fold reads In and leaves it as it was, and
// in place (runBound).
func TestAllreduceVariantsEquivalence(t *testing.T) {
	variants := []struct {
		name  string
		build func(tr Transport, buf []byte) *Schedule
	}{
		{"recdbl", func(tr Transport, buf []byte) *Schedule { return AllreduceRecDbl(tr, buf, addByte, 0) }},
		{"ring", func(tr Transport, buf []byte) *Schedule { return AllreduceRing(tr, buf, 1, addByte, 0) }},
	}
	f := func(seed int64, rawP, rawN uint8) bool {
		p := int(rawP%8) + 1
		n := (int(rawN%6) + 1) * p // ring needs count >= p; use multiples
		rng := rand.New(rand.NewSource(seed))
		for _, v := range variants {
			if v.name == "ring" && p == 1 {
				continue
			}
			if err := runBound(t, p, n, rng, -1, v.build, everyRank); err != nil {
				t.Logf("%s p=%d n=%d: %v", v.name, p, n, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBcastVariantsEquivalence: binomial and scatter-allgather deliver
// identical bytes for arbitrary roots and sizes.
func TestBcastVariantsEquivalence(t *testing.T) {
	f := func(seed int64, rawP, rawRoot uint8, rawN uint16) bool {
		p := int(rawP%9) + 1
		root := int(rawRoot) % p
		n := int(rawN%2000) + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, n)
		rng.Read(data)
		for _, variant := range []string{"binomial", "scag"} {
			trs := newMemNet(p)
			bufs := make([][]byte, p)
			ss := make([]*Schedule, p)
			for r, tr := range trs {
				bufs[r] = make([]byte, n)
				if r == root {
					copy(bufs[r], data)
				}
				if variant == "binomial" {
					ss[r] = Bcast(tr, bufs[r], root, 0)
				} else {
					ss[r] = BcastScatterAllgather(tr, bufs[r], root, 0)
				}
			}
			drive(t, ss)
			for r := 0; r < p; r++ {
				for j := 0; j < n; j++ {
					if bufs[r][j] != data[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
