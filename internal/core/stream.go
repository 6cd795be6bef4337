package core

import (
	"fmt"
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

	// The park rung of Await (wait.go). parked counts waiters between
	// "about to park" and "awake again"; every arrival on the stream
	// (Work.Arrived, Defer, AsyncStart) that sees it nonzero pokes
	// wake. sleepMu owns the reused timer: a second waiter parking on
	// the same stream sleeps plainly.
	parked    atomic.Int32
	wake      chan struct{}
	sleepMu   sync.Mutex
	parkTimer *time.Timer

	mu sync.Mutex

	// net is the netmod slot (AttachNetmod), written once under mu
	// during stream attach; work is its counter (Work), which the pass
	// reads to skip an idle netmod on one atomic load.
	net  Netmod
	work atomic.Int64

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

// Work is a stream's netmod work counter, seen by the netmod's
// producers (nic.WorkCounter). Per arrival they count it (Add(+n)),
// make it drainable, then announce it (Arrived): counting first keeps
// the counter at or above what a poll could drain (Netmod.Queued), so
// a pass that skips the netmod on a zero counter skips nothing;
// announcing last means the waiter it wakes finds the work. The drain
// lowers the counter (Add(-n)) after the depth.
type Work Stream

// Add adjusts the counter by delta.
func (w *Work) Add(delta int) { w.work.Add(int64(delta)) }

// Arrived wakes a waiter parked on the stream: either the waiter's
// re-check pass sees the work or this call sees the waiter.
func (w *Work) Arrived() { (*Stream)(w).arrived() }

// AttachNetmod installs the stream's one netmod and returns its work
// counter; a second attach panics. The MPI runtime attaches each VCI's
// link and binds the counter to it before any producer can reach it.
// The netmod is polled only while the counter is positive, and its
// Parking joins every park of the stream's waiters.
func (s *Stream) AttachNetmod(n Netmod) *Work {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.net != nil {
		panic(fmt.Sprintf("core: stream %q already has a netmod", s.name))
	}
	s.net = n
	return (*Work)(s)
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

// Pending returns the number of pending async things, continuations
// and netmod operations. Lock-free: it never blocks behind a pass.
func (s *Stream) Pending() int {
	n := int(s.nAsync.Load()) + int(s.nStaged.Load()) + int(s.nCont.Load())
	if s.net != nil {
		n += s.net.Pending()
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
func (s *Stream) Progress() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progressLocked()
}

// TryProgress attempts one progress pass without blocking. If the
// stream lock is contended it returns immediately with ok=false: a
// contended stream is already being progressed by its owner, so
// waiting behind it would serialize disjoint contexts — MPICH's
// multi-VCI trylock discipline. made reports whether this call made
// progress (false when ok is false).
func (s *Stream) TryProgress() (made, ok bool) {
	if !s.mu.TryLock() {
		return false, false
	}
	made = s.progressLocked()
	s.mu.Unlock()
	return made, true
}

// progressLocked runs the collated poll. Caller holds s.mu.
//
// This is the Go rendition of the paper's Listing 1.1: three slots
// polled in order — continuations, async things, the netmod — and the
// pass returns as soon as one reports progress. The short-circuit
// matters for the netmod, whose empty poll may be costly. Each slot
// whose count reads zero is skipped on one atomic load.
func (s *Stream) progressLocked() bool {
	s.stats.calls.Add(1)
	em := s.eng.met
	on := em != nil && em.reg.On() // single atomic load when wired
	polls := 0
	made := Class(-1)
	if s.nCont.Load() > 0 {
		m, n := s.drainContLocked()
		polls += n
		if m {
			made = ClassCont
		}
	}
	if made < 0 && s.nAsync.Load()+s.nStaged.Load() > 0 {
		m, n := s.pollAsyncLocked(em, on)
		polls += n
		if m {
			made = ClassAsync
		}
	}
	if made < 0 && s.net != nil {
		if s.work.Load() > 0 {
			polls++
			if s.net.Poll() {
				made = ClassNetmod
			}
		} else if checkInvariants {
			s.checkIdleNetmod()
		}
	}
	if made >= 0 {
		s.stats.made.Add(1)
		s.stats.madeByClass[made].Add(1)
	}
	if on {
		em.calls.Inc()
		em.hookPolls.Add(uint64(polls))
		em.pollsPerCall.Observe(int64(polls))
		if made >= 0 {
			em.made.Inc()
			em.madeByClass[made].Inc()
		}
	}
	return made >= 0
}

// checkIdleNetmod panics if the netmod this pass is skipping has
// entries to drain while its counter reads zero: an under-count, which
// would strand them until some unrelated arrival. Depth first, counter
// second: producers count an entry before it becomes drainable (Work),
// so the counter never reads below the depth, and only a pass — this
// one, under the stream lock — lowers the depth; a positive depth is
// therefore still there, and still covered, when the counter is read.
func (s *Stream) checkIdleNetmod() {
	if d := s.net.Queued(); d > 0 {
		if c := s.work.Load(); c <= 0 {
			panic(fmt.Sprintf("core: stream %q skipped its netmod with %d entries queued and its counter at %d", s.name, d, c))
		}
	}
}
