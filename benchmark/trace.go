package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The tracer records harness spans around public calls into gompix.
// One tracer belongs to one rank goroutine, so it takes no lock. Every
// span updates the per-name aggregates (count, total, self time, and a
// bounded sample of durations); the first keptSpansPerPhase spans a rank
// records in each phase are also kept whole — name, start, end, parent, operation id — and
// written to the trace file when the run ends.

type spanName uint8

const (
	spOp spanName = iota // one operation of the phase: a round trip, a window, an allreduce, a task round
	spIsend
	spIrecv
	spWait
	spPassMade // one Progress() pass that made progress
	spPassIdle // one Progress() pass that found nothing
	spColl     // Iallreduce initiation
	spCont     // ContinueAll + Start registration
	spAsync    // AsyncStart registration
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "isend", "irecv", "wait", "pass.made", "pass.idle", "coll.start", "continue.register", "async.start",
}

const (
	keptSpansPerPhase = 10000
	maxSpanSamples    = 1 << 16
)

type span struct {
	Name   spanName
	Parent int32 // index into kept spans, -1 for a root or when the parent was not kept
	Op     uint32
	Start  int64 // ns since the tracer's epoch
	End    int64
}

type spanAgg struct {
	Count   int64
	TotalNs int64
	SelfNs  int64
	samples []int64
}

type openSpan struct {
	name    spanName
	start   int64
	childNs int64
	kept    int32
}

type tracer struct {
	epoch time.Time
	rank  int
	op    uint32
	spans []span
	keep  int // spans may be kept whole while len(spans) < keep
	stack []openSpan
	agg   [numSpanNames]spanAgg
	done  []traceFileAgg // aggregates of the phases already harvested
}

func newTracer(rank int, epoch time.Time) *tracer {
	t := &tracer{epoch: epoch, rank: rank, keep: keptSpansPerPhase, stack: make([]openSpan, 0, 8)}
	for i := range t.agg {
		t.agg[i].samples = make([]int64, 0, 1024)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name spanName) {
	kept := int32(-1)
	start := t.now()
	if len(t.spans) < t.keep {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		kept = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: start})
	}
	t.stack = append(t.stack, openSpan{name: name, start: start, kept: kept})
}

// end closes the innermost span; self time is its duration minus the
// part its children covered.
func (t *tracer) end() { t.endAs(t.stack[len(t.stack)-1].name) }

// endAs closes the innermost span under another name: a progress pass
// is only known to be "made" or "idle" once it returns.
func (t *tracer) endAs(name spanName) {
	end := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - o.start
	if o.kept >= 0 {
		t.spans[o.kept].End = end
		t.spans[o.kept].Name = name
	}
	a := &t.agg[name]
	a.Count++
	a.TotalNs += dur
	a.SelfNs += dur - o.childNs
	if len(a.samples) < maxSpanSamples {
		a.samples = append(a.samples, dur)
	}
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
}

// p50ns returns the median duration of the spans with the given name.
func (t *tracer) p50ns(name spanName) float64 {
	s := append([]int64(nil), t.agg[name].samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return p50(s)
}

// spanSummary is what a phase keeps of one span name.
type spanSummary struct {
	Count   int64
	TotalNs int64
	SelfNs  int64
	P50ns   float64
}

// summary returns the current phase's aggregates.
func (t *tracer) summary() (out [numSpanNames]spanSummary) {
	for name := spanName(0); name < numSpanNames; name++ {
		a := &t.agg[name]
		out[name] = spanSummary{a.Count, a.TotalNs, a.SelfNs, t.p50ns(name)}
	}
	return out
}

// harvest files the phase's aggregates for the trace file, forgets
// them, and lets the next phase keep its own first spans whole.
func (t *tracer) harvest(phase string) {
	for name, sm := range t.summary() {
		if sm.Count > 0 {
			t.done = append(t.done, traceFileAgg{t.rank, phase, spanNames[name], sm.Count, sm.TotalNs, sm.SelfNs, sm.P50ns})
		}
	}
	for i := range t.agg {
		t.agg[i] = spanAgg{samples: t.agg[i].samples[:0]}
	}
	t.keep = len(t.spans) + keptSpansPerPhase
}

type traceFileSpan struct {
	Rank    int    `json:"rank"`
	Name    string `json:"name"`
	Op      uint32 `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
}

type traceFileAgg struct {
	Rank    int     `json:"rank"`
	Phase   string  `json:"phase"`
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	P50Ns   float64 `json:"p50_ns"`
}

type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Note     string             `json:"note"`
	Counts   map[string]float64 `json:"counts"`
	Self     []traceFileAgg     `json:"self_time"`
	Spans    []traceFileSpan    `json:"spans"`
}

// writeTrace writes the kept spans, the self-time table and the
// boundary counts of a traced run.
func writeTrace(path, workload string, seed uint64, tracers []*tracer, counts map[string]float64) error {
	tf := traceFile{
		Workload: workload, Seed: seed, Counts: counts,
		Note: "spans are harness spans around public gompix calls; parent indexes the rank's own span list; " +
			"only the first spans of each rank and phase are kept whole, the self_time table covers all of them",
	}
	for _, t := range tracers {
		tf.Self = append(tf.Self, t.done...)
		for _, s := range t.spans {
			tf.Spans = append(tf.Spans, traceFileSpan{t.rank, spanNames[s.Name], s.Op, s.Start, s.End, s.Parent})
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
