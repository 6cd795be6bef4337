package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stream is an MPIX Stream: a serial execution context for MPI
// operations and progress. All operations attached to a stream are
// issued in serial order; progress on a stream only touches that
// stream's subsystems, so disjoint streams never contend (paper §3.1).
//
// The mutex exists because gompix cannot enforce the application's
// serial-context promise; when the promise holds the lock is always
// uncontended and costs a single atomic operation. When several
// goroutines share a stream (legal for the NULL stream), they contend
// on it — the effect measured in the paper's Figure 9. TryProgress
// turns that contention into a skip: a contended stream is by
// definition being progressed by someone else.
type Stream struct {
	eng  *Engine
	id   int
	name string

	// skip is the stream's permanent subsystem skip mask (info hints).
	skip SkipMask

	// The park rung of Await (wait.go). parked counts waiters between
	// "about to park" and "awake again"; every arrival on the stream
	// (Work.Add, Defer, AsyncStart) that sees it nonzero pokes wake.
	// parkHook, when non-nil, is the transport's half of the handshake
	// for producers outside this process (nic.Link.Parking); set once
	// during stream attach, before any wait runs. sleepMu owns the
	// reused timer: a second waiter parking on the same stream sleeps
	// plainly.
	parked    atomic.Int32
	wake      chan struct{}
	parkHook  func() bool
	sleepMu   sync.Mutex
	parkTimer *time.Timer

	mu sync.Mutex

	// hooks is the registered subsystem hook set, copy-on-write so that
	// progress and Pending read it with one atomic load. Writers
	// (RegisterHookCounted, cold) serialize on mu.
	hooks atomic.Pointer[hookSet]

	// work[c] counts outstanding work items for class c, maintained by
	// its hooks through their Work handles. A progress pass skips an
	// idle class on a single atomic load instead of walking its hook
	// slice (see progressLocked).
	work [NumClasses]atomic.Int64

	// Async things. head is an intrusive doubly-linked list guarded by
	// mu. Newly started things land in staged (guarded by stagedMu) so
	// that AsyncStart never blocks behind a running progress call; each
	// progress call adopts staged tasks first.
	head     *task
	tail     *task
	nAsync   atomic.Int64
	stagedMu sync.Mutex
	staged   []*task
	nStaged  atomic.Int64
	// dead marks a freed stream; guarded by stagedMu so FreeStream's
	// check-and-mark and AsyncStart's stage are mutually atomic.
	dead bool

	// Continuation run-queue (MPIX Continue): callbacks deferred onto
	// this stream with Defer, executed FIFO by the ClassCont drain.
	// contQ is guarded by stagedMu (same FreeStream atomicity argument
	// as staged); contFree recycles the last drained batch's backing
	// array and is touched only under mu (by the drain).
	contQ    []func()
	contFree []func()
	nCont    atomic.Int64

	stats streamCounters
}

// hookSet is an immutable snapshot of a stream's registered hooks.
type hookSet struct {
	byClass [NumClasses][]Hook
}

// streamCounters is the internal atomic mirror of StreamStats, updated
// under the stream lock but readable lock-free by Stats().
type streamCounters struct {
	calls       atomic.Uint64
	made        atomic.Uint64
	asyncPolls  atomic.Uint64
	asyncDone   atomic.Uint64
	madeByClass [NumClasses]atomic.Uint64
}

// StreamOption configures a new stream.
type StreamOption func(*Stream)

// WithName labels the stream for diagnostics.
func WithName(name string) StreamOption {
	return func(s *Stream) { s.name = name }
}

// WithSkip sets the stream's permanent subsystem skip mask, mirroring
// MPIX stream info hints (paper §3.2), e.g. Skip(ClassNetmod) for a
// stream that never performs inter-node communication.
func WithSkip(mask SkipMask) StreamOption {
	return func(s *Stream) { s.skip = mask }
}

// StreamStats counts progress activity on a stream.
type StreamStats struct {
	// Calls is the number of Progress invocations.
	Calls uint64
	// Made is the number of Progress invocations that reported progress.
	Made uint64
	// AsyncPolls is the number of individual async thing polls.
	AsyncPolls uint64
	// AsyncDone is the number of async things that completed.
	AsyncDone uint64
	// MadeByClass counts which subsystem class satisfied the call.
	MadeByClass [NumClasses]uint64
}

// Engine returns the owning engine.
func (s *Stream) Engine() *Engine { return s.eng }

// ID returns the stream's engine-unique id.
func (s *Stream) ID() int { return s.id }

// Name returns the stream's diagnostic name.
func (s *Stream) Name() string { return s.name }

// SetParkHook installs the transport's half of the park handshake
// (nic.Link.Parking): Await calls it after its last empty pass and
// before sleeping; it publishes "wake me" to producers that cannot reach the
// stream's wake channel and reports whether sleeping is still safe.
// Call during stream attach, before any wait runs.
func (s *Stream) SetParkHook(parking func() bool) { s.parkHook = parking }

// Work is a handle on one of a stream's per-class work counters,
// given to counted hooks at registration. The owning subsystem calls
// Add(+n) when work arrives (a packet delivered, an operation queued, a
// timer armed) and Add(-n) when it is consumed, so an idle class costs
// the progress pass a single atomic load. A nil *Work is a no-op,
// letting subsystems run unbound (e.g. in their own unit tests).
type Work struct {
	n *atomic.Int64
	s *Stream
}

// Add adjusts the counter by delta. Arriving work (delta > 0) wakes a
// waiter parked on the stream: the counter bump precedes the parked
// check, mirroring Await's raise-parked-then-poll order, so either the
// waiter's pass sees the work or this call sees the waiter.
func (w *Work) Add(delta int) {
	if w != nil {
		w.n.Add(int64(delta))
		if delta > 0 {
			w.s.arrived()
		}
	}
}

// RegisterHookCounted attaches an internal subsystem hook to the stream
// under the given class; the MPI runtime calls this during
// initialization. The hook promises to maintain the returned work
// counter: the counter is positive whenever polling the hook might make
// progress, so an idle class is skipped on one atomic load (the fast
// path's idle-class skip). A hook that under-counts stalls its own
// completions; progress still runs a full uncounted pass periodically
// as a safety net.
func (s *Stream) RegisterHookCounted(c Class, h Hook) *Work {
	if c < 0 || c >= NumClasses {
		panic("core: invalid hook class")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := &hookSet{}
	if old := s.hooks.Load(); old != nil {
		*ns = *old
	}
	// Rebuild only class c's slice; other classes alias the old (and
	// immutable) slices.
	ns.byClass[c] = append(append([]Hook(nil), ns.byClass[c]...), h)
	s.hooks.Store(ns)
	if em := s.eng.met; em != nil {
		// Hook registration is cold; record the list length even while
		// recording is off so the gauge is truthful when enabled later.
		em.hooks.Add(1)
	}
	return &Work{n: &s.work[c], s: s}
}

// Stats returns a snapshot of the stream's progress counters. It is
// served from atomics and never takes the stream lock, so observing a
// stream does not perturb its progress.
func (s *Stream) Stats() StreamStats {
	st := StreamStats{
		Calls:      s.stats.calls.Load(),
		Made:       s.stats.made.Load(),
		AsyncPolls: s.stats.asyncPolls.Load(),
		AsyncDone:  s.stats.asyncDone.Load(),
	}
	for c := range st.MadeByClass {
		st.MadeByClass[c] = s.stats.madeByClass[c].Load()
	}
	return st
}

// Pending returns the number of pending async things plus the pending
// counts reported by all registered hooks. Lock-free: it reads the
// hook set and task counters atomically and never blocks behind a
// progress pass.
func (s *Stream) Pending() int {
	n := int(s.nAsync.Load()) + int(s.nStaged.Load()) + int(s.nCont.Load())
	if hs := s.hooks.Load(); hs != nil {
		for c := range hs.byClass {
			for _, h := range hs.byClass[c] {
				n += h.Pending()
			}
		}
	}
	return n
}

// PendingAsync returns the number of registered (plus staged) async
// things on the stream.
func (s *Stream) PendingAsync() int {
	return int(s.nAsync.Load()) + int(s.nStaged.Load())
}

// Progress invokes one collated progress pass on the stream
// (MPIX_Stream_progress) and reports whether progress was made.
func (s *Stream) Progress() bool { return s.ProgressMasked(0) }

// ProgressMasked is Progress with a per-call skip mask, letting a
// caller tune the pass to its context (paper §2.6: "the progress state
// can be set to skip progress for all other subsystems").
func (s *Stream) ProgressMasked(skip SkipMask) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progressLocked(skip)
}

// TryProgress attempts one progress pass without blocking. If the
// stream lock is contended it returns immediately with ok=false: a
// contended stream is already being progressed by its owner, so
// waiting behind it would serialize disjoint contexts — MPICH's
// multi-VCI trylock discipline. made reports whether this call made
// progress (false when ok is false).
func (s *Stream) TryProgress() (made, ok bool) { return s.TryProgressMasked(0) }

// TryProgressMasked is TryProgress with a per-call skip mask.
func (s *Stream) TryProgressMasked(skip SkipMask) (made, ok bool) {
	if !s.mu.TryLock() {
		return false, false
	}
	made = s.progressLocked(skip)
	s.mu.Unlock()
	return made, true
}

// fullPassEvery forces an uncounted full poll of all classes once per
// this many passes, bounding the damage of a subsystem that forgets to
// bump its work counter: a missed increment delays its completion by
// at most one period instead of hanging it. It is a net under a bug and
// nothing else: no subsystem may count on it to be found, and a class
// whose counter is honest runs exactly as it would without it.
const fullPassEvery = 64

// progressLocked runs the collated poll. Caller holds s.mu.
//
// This is the Go rendition of the paper's Listing 1.1: poll each
// subsystem class in order and return as soon as one reports progress.
// The short-circuit matters for netmod, whose empty poll may be costly.
// Idle hook classes are skipped on one atomic load.
func (s *Stream) progressLocked(skip SkipMask) bool {
	calls := s.stats.calls.Add(1)
	full := calls%fullPassEvery == 0
	em := s.eng.met
	on := em != nil && em.reg.On() // single atomic load when wired
	polls := 0
	skip |= s.skip
	hs := s.hooks.Load()
	madeClass := Class(-1)
	for c := Class(0); c < NumClasses; c++ {
		if skip.Has(c) {
			continue
		}
		made := false
		switch c {
		case ClassCont:
			if s.nCont.Load() > 0 {
				cMade, cPolls := s.drainContLocked()
				made = cMade
				polls += cPolls
			}
		case ClassAsync:
			if s.nAsync.Load()+s.nStaged.Load() > 0 {
				aMade, aPolls := s.pollAsyncLocked(em, on)
				made = aMade
				polls += aPolls
			}
		}
		if hs != nil && len(hs.byClass[c]) > 0 {
			if full || s.work[c].Load() > 0 {
				for _, h := range hs.byClass[c] {
					polls++
					if h.Poll() {
						made = true
					}
				}
			}
		}
		if made {
			s.stats.made.Add(1)
			s.stats.madeByClass[c].Add(1)
			madeClass = c
			break
		}
	}
	if on {
		em.calls.Inc()
		em.hookPolls.Add(uint64(polls))
		em.pollsPerCall.Observe(int64(polls))
		if madeClass >= 0 {
			em.made.Inc()
			em.madeByClass[madeClass].Inc()
		}
	}
	return madeClass >= 0
}
