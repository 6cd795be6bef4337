package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the median of v (0 for an empty slice); v is not
// modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), which
// is what the driver computes a metric's spread from. It needs at
// least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrRel is the distance between the first and third quartile as a
// share of the median: the spread figure the benchmark contract bounds.
func iqrRel(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailLadder holds the percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it and returns it with its value.
// sorted must be ascending. With fewer than twenty samples not even the
// median qualifies and ok is false.
func tailPercentile(sorted []int64) (q float64, value int64, ok bool) {
	n := len(sorted)
	for _, p := range tailLadder {
		idx := int(math.Ceil(p*float64(n))) - 1
		if idx < 0 || n-1-idx < 10 {
			break
		}
		q, value, ok = p, sorted[idx], true
	}
	return q, value, ok
}

// p50 returns the median of ascending integer samples.
func p50(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}

// blockStat is one timed block of a phase.
type blockStat struct {
	Ops   int     `json:"ops"`
	Secs  float64 `json:"secs"`
	P50ns float64 `json:"p50_ns,omitempty"` // per-operation median, latency phases only
}

// blockFigures folds the blocks of a phase into the two figures a
// metric is built from: the lowest block p50 and the highest
// ops/block_time, each with the relative IQR over all blocks.
//
// The best block and not the median one, because the noise of a shared
// host has one sign. A neighbour on the core's other hardware thread
// makes the same code 1.5 to 2 times slower for seconds or minutes at a
// time, and nothing makes it faster than the core running it alone. The
// median over blocks follows the share of a run that met a neighbour;
// the best block is the program's speed on an undisturbed core, which is
// what two runs have in common. The blocks are repetitions of one
// measurement: the iteration count is fixed before a block starts, the
// payloads come from the seed, every block is kept in the record, and a
// failed operation fails the run whichever block it was in.
func blockFigures(blocks []blockStat) (p50ns, p50IQR, rate, rateIQR float64) {
	var p50s, rates []float64
	for _, b := range blocks {
		if b.P50ns > 0 {
			p50s = append(p50s, b.P50ns)
		}
		if b.Secs > 0 {
			rates = append(rates, float64(b.Ops)/b.Secs)
		}
	}
	if len(p50s) > 0 {
		p50ns = slices.Min(p50s)
	}
	if len(rates) > 0 {
		rate = slices.Max(rates)
	}
	return p50ns, iqrRel(p50s), rate, iqrRel(rates)
}
