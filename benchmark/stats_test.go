package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its argument")
	}
}

// TestQuartiles pins the cut points to what Python's
// statistics.quantiles(v, n=4) returns, the figure the driver computes.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 8, 4, 6}, 3, 6, 9},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1.5, 1.7, 1.6, 9.0, 1.55, 1.65, 1.58, 1.62, 1.61, 1.59}, 1.5725, 1.605, 1.6625},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrRel([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrRel = %v, want 1", got)
	}
	if got := iqrRel([]float64{5}); got != 0 {
		t.Errorf("iqrRel of one value = %v, want 0", got)
	}
}

// TestUnfinishedOperations checks the accounting behind the watchdog:
// operations that were started and never verified count as failed, next
// to those that were verified and wrong, over every epoch of the run.
func TestUnfinishedOperations(t *testing.T) {
	var ops tally
	done := new(job)
	done.attempted.Store(10)
	done.done.Store(10)
	ops.add(done)
	hung := new(job)
	hung.attempted.Store(10)
	hung.done.Store(6)
	hung.bad.Store(1)
	ops.cur.Store(hung)
	if attempted, failed := ops.totals(); attempted != 20 || failed != 4 {
		t.Errorf("attempted %d failed %d, want 20 and 4", attempted, failed)
	}
}

func TestBlockFigures(t *testing.T) {
	blocks := []blockStat{
		{Ops: 100, Secs: 1, P50ns: 10},
		{Ops: 100, Secs: 2, P50ns: 30},
		{Ops: 100, Secs: 4, P50ns: 20},
	}
	p, _, r, _ := blockFigures(blocks)
	if p != 10 || r != 100 {
		t.Errorf("blockFigures = p50 %v rate %v, want those of the best block, 10 and 100", p, r)
	}
	// A rate phase records no per-operation samples.
	p, pi, r, _ := blockFigures([]blockStat{{Ops: 10, Secs: 1}, {Ops: 30, Secs: 1}})
	if p != 0 || pi != 0 || r != 30 {
		t.Errorf("rate-only blocks: p50 %v iqr %v rate %v", p, pi, r)
	}
}

// TestTailPercentile checks the "at least ten samples beyond it" rule.
func TestTailPercentile(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		ok   bool
		q    float64
		want int64
	}{
		{19, false, 0, 0},          // nine beyond the median: nothing qualifies
		{21, true, 0.5, 11},        // ten beyond the median
		{100, true, 0.9, 90},       // p99 would leave one sample beyond
		{1000, true, 0.99, 990},    // exactly ten beyond p99
		{999, true, 0.9, 900},      // nine beyond p99
		{10000, true, 0.999, 9990}, // exactly ten beyond p99.9
		{2000000, true, 0.99999, 1999980},
	} {
		q, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || q != c.q || v != c.want {
			t.Errorf("n=%d: got (%v, %v, %v), want (%v, %v, %v)", c.n, q, v, ok, c.q, c.want, c.ok)
		}
	}
}

func TestPayloadChecks(t *testing.T) {
	for _, size := range []int{8, 16, 24, 100, 64 << 10} {
		b := newBuf(size, 42, 3)
		fillBody(b, 42, 3)
		stamp(b, 42, 7)
		if !checkEnds(b, 42, 7) || !checkBody(b, 42, 3) {
			t.Fatalf("size %d: a stamped buffer does not verify", size)
		}
		if checkEnds(b, 42, 8) || checkEnds(b, 43, 7) {
			t.Fatalf("size %d: wrong sequence or seed verifies", size)
		}
		if size >= 24 {
			b[size/2] ^= 1
			if checkBody(b, 42, 3) {
				t.Fatalf("size %d: a flipped body bit verifies", size)
			}
		}
	}
	const ranks, n = 4, 16
	sum := make([]byte, 8*n)
	for r := 0; r < ranks; r++ {
		in := make([]byte, 8*n)
		fillReduce(in, 9, r)
		stampReduce(in, 9, r, 1234)
		for i := 0; i < n; i++ {
			putF64(sum, i, getF64(sum, i)+getF64(in, i))
		}
	}
	if !checkReduce(sum, 9, ranks, 1234, true) || checkReduce(sum, 9, ranks, 1235, false) {
		t.Fatal("closed form of the reduction does not match the inputs")
	}
}
