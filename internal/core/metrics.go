package core

import (
	"gompix/internal/metrics"
	"gompix/internal/trace"
)

// engineMetrics holds the engine's instruments. All streams of one
// engine share these (per-stream detail lives in StreamStats and the
// trace lanes); the hot-path guard is em != nil && em.reg.On().
type engineMetrics struct {
	reg *metrics.Registry

	// calls / made count Progress invocations and those that reported
	// progress; madeByClass attributes the satisfied calls.
	calls, made *metrics.Counter
	madeByClass [NumClasses]*metrics.Counter
	// hookPolls counts individual subsystem hook polls; pollsPerCall
	// is its distribution per progress call.
	hookPolls    *metrics.Counter
	pollsPerCall *metrics.Histogram
	// Async thing poll outcomes (MPIX_ASYNC_DONE / NOPROGRESS / the
	// in-between Progressed), plus start/done lifecycle counts.
	asyncDone, asyncProgressed, asyncNoProgress *metrics.Counter
	asyncStarted, asyncRetired                  *metrics.Counter
	// hooks is the registered hook-list length across all streams.
	hooks *metrics.Gauge
	// pendingAsync tracks registered-plus-staged async things.
	pendingAsync *metrics.Gauge
	// The wait ladder (Await): calls, yields after an empty pass, park
	// rung entries, parks an arrival ended before the timer, pokes
	// delivered to a parked waiter, and the time spent parked.
	waits, yields, parks, earlyWakes, pokes *metrics.Counter
	parkNS                                  *metrics.Histogram
}

// UseMetrics wires the engine (and all its streams, present and
// future) to the registry under the given scope prefix, e.g. "rank0".
// Call it before the engine is shared between goroutines — typically
// right after NewEngine; instrument updates themselves are race-free.
// A nil registry leaves the engine un-instrumented.
func (e *Engine) UseMetrics(reg *metrics.Registry, scope string) {
	if reg == nil {
		return
	}
	em := &engineMetrics{reg: reg}
	p := scope + ".core."
	em.calls = reg.Counter(p + "progress.calls")
	em.made = reg.Counter(p + "progress.made")
	for c := Class(0); c < NumClasses; c++ {
		em.madeByClass[c] = reg.Counter(p + "progress.made." + c.String())
	}
	em.hookPolls = reg.Counter(p + "hook.polls")
	em.pollsPerCall = reg.Histogram(p + "progress.polls_per_call")
	em.asyncDone = reg.Counter(p + "async.poll.done")
	em.asyncProgressed = reg.Counter(p + "async.poll.progressed")
	em.asyncNoProgress = reg.Counter(p + "async.poll.noprogress")
	em.asyncStarted = reg.Counter(p + "async.started")
	em.asyncRetired = reg.Counter(p + "async.retired")
	em.hooks = reg.Gauge(p + "hooks")
	em.pendingAsync = reg.Gauge(p + "async.pending")
	em.waits = reg.Counter(p + "wait.waits")
	em.yields = reg.Counter(p + "wait.yields")
	em.parks = reg.Counter(p + "wait.parks")
	em.earlyWakes = reg.Counter(p + "wait.early_wakes")
	em.pokes = reg.Counter(p + "wait.pokes")
	em.parkNS = reg.Histogram(p + "wait.park_ns")
	e.met = em
}

// UseTracer attaches a structured-event tracer to the engine: async
// thing lifetimes are emitted as spans on their stream's lane (the
// Chrome export renders them as per-stream tracks). rank labels the
// events' process lane. Call before the engine is shared between
// goroutines; fn itself must be safe for concurrent use.
func (e *Engine) UseTracer(fn func(trace.Event), rank int) {
	e.tracer = fn
	e.traceRank = rank
}

// traceAsync emits one async-thing span edge. Caller guarantees
// e.tracer != nil.
func (e *Engine) traceAsync(s *Stream, id uint64, phase trace.EventPhase, cat string) {
	e.tracer(trace.Event{
		T:      e.clock.Now(),
		Rank:   e.traceRank,
		Stream: s.id,
		Cat:    cat,
		Phase:  phase,
		ID:     id,
	})
}
