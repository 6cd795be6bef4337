// Package core implements the paper's primary contribution: an explicit,
// interoperable MPI progress engine.
//
// The three ideas from "MPI Progress For All" (SC 2024) live here:
//
//   - MPIX Streams: serial execution contexts that scope progress
//     (Stream, Engine.NewStream, Engine.Default for MPIX_STREAM_NULL).
//   - Explicit progress: Stream.Progress mirrors MPIX_Stream_progress and
//     MPICH's internal MPIDI_progress_test (paper Listing 1.1) — an
//     ordered, collated poll over three fixed slots (continuations,
//     async things, the netmod) that short-circuits as soon as one
//     reports progress.
//   - MPIX Async: user progress hooks registered with Stream.AsyncStart
//     and polled from inside progress (PollFunc, Thing, Spawn).
//
// The MPI runtime (internal/mpi) attaches one netmod per stream, its
// VCI's link (Stream.AttachNetmod). The other entries of Listing 1.1
// that advance a set of in-flight jobs — datatype pack jobs, collective
// schedules — are async things: they join a pass through AsyncStart
// like any user task and are polled in the ClassAsync slot.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/timing"
	"gompix/internal/trace"
)

// Class names a slot of the collated pass, in poll order:
// continuations, async things, netmod. The one ordering the paper gives
// a reason for (Listing 1.1) is that the netmod comes last. The
// listing's datatype and collective entries have no slot of their own
// — their jobs are async things — and neither has intra-node shared
// memory: the composite transport polls its shm leg first inside the
// netmod's poll, which is the listing's order.
type Class int

const (
	// ClassCont drains the stream's continuation run-queue: completion
	// callbacks deferred onto this stream (MPIX Continue). Drained
	// before async things so a callback chained off a completion runs
	// before the poll loops that may depend on its effects.
	ClassCont Class = iota
	// ClassAsync polls async things (MPIX Async): the user's, and the
	// library's own resumable jobs — collective schedules, datatype
	// pack jobs, link flushes, retransmission timers.
	ClassAsync
	// ClassNetmod polls the stream's netmod (AttachNetmod): whatever
	// link the transport gave the stream. It is polled last and
	// skipped whenever an earlier slot made progress, because an empty
	// netmod poll is not guaranteed to be cheap.
	ClassNetmod

	// NumClasses is the number of slots.
	NumClasses
)

var classNames = [NumClasses]string{"cont", "async", "netmod"}

// String returns the slot name.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Netmod is a stream's network module, the last slot of the collated
// pass (AttachNetmod).
type Netmod interface {
	// Poll advances the netmod and reports whether any progress was
	// made. It runs with the stream lock held, only while the work
	// counter is positive, and must not call Stream.Progress
	// (recursive progress is prohibited, paper §3.4).
	Poll() bool
	// Pending returns the number of incomplete operations (Quiesce).
	Pending() int
	// Parking is the park rung's call before a sleep
	// (nic.Link.Parking): it tells producers that cannot reach the
	// stream's wake channel to ring, and reports whether sleeping is
	// still safe.
	Parking() bool
	// Queued returns the entries a Poll would drain now, which the
	// work counter never reads below.
	Queued() int
}

// Engine owns the streams of one process (one MPI rank, or a standalone
// asynchronous application). The zero value is not usable; call NewEngine.
type Engine struct {
	clock timing.Clock

	mu      sync.Mutex
	streams []*Stream
	nextID  int

	// snap caches the Streams() snapshot so the ProgressAll hot loop
	// does not allocate per call; NewStream/FreeStream invalidate it.
	snap atomic.Pointer[[]*Stream]

	def *Stream // the NULL stream (MPIX_STREAM_NULL)

	// met is the optional observability wiring (UseMetrics); nil when
	// the engine is un-instrumented, so the disabled cost is one nil
	// check (plus one atomic load when wired but off).
	met *engineMetrics
	// tracer receives structured async-thing span events (UseTracer).
	tracer    func(trace.Event)
	traceRank int
	asyncSeq  atomic.Uint64 // span ids for async things
}

// NewEngine returns an engine with a default (NULL) stream. A nil clock
// selects the real monotonic clock.
func NewEngine(clock timing.Clock) *Engine {
	if clock == nil {
		clock = timing.NewRealClock()
	}
	e := &Engine{clock: clock}
	e.def = e.NewStream(WithName("NULL"))
	return e
}

// Clock returns the engine's time source.
func (e *Engine) Clock() timing.Clock { return e.clock }

// Wtime returns the current time in seconds, mirroring MPI_Wtime.
func (e *Engine) Wtime() float64 { return timing.Wtime(e.clock) }

// Now returns the current time on the engine clock.
func (e *Engine) Now() time.Duration { return e.clock.Now() }

// Default returns the NULL stream, the shared default progress context.
func (e *Engine) Default() *Stream { return e.def }

// NewStream creates a stream (MPIX_Stream_create). Each stream is an
// independent serial progress context with its own lock, netmod slot,
// continuation queue and async task list.
func (e *Engine) NewStream(opts ...StreamOption) *Stream {
	s := &Stream{eng: e, wake: make(chan struct{}, 1)}
	for _, o := range opts {
		o(s)
	}
	e.mu.Lock()
	s.id = e.nextID
	e.nextID++
	if s.name == "" {
		s.name = fmt.Sprintf("stream-%d", s.id)
	}
	e.streams = append(e.streams, s)
	e.snap.Store(nil)
	e.mu.Unlock()
	return s
}

// FreeStream removes a stream from the engine (MPIX_Stream_free).
// It panics if the stream still has pending work. The pending check
// and the removal are one atomic step: FreeStream holds the stream
// lock and the staging lock while it checks, so a concurrent
// AsyncStart either lands before the check (and makes FreeStream
// panic) or observes the dead mark and panics itself — a task can
// never be stranded on a half-freed stream.
func (e *Engine) FreeStream(s *Stream) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.mu.Lock()
	s.stagedMu.Lock()
	n := s.Pending() // lock-free read; exact while both stream locks are held
	if n != 0 {
		s.stagedMu.Unlock()
		s.mu.Unlock()
		panic(fmt.Sprintf("core: freeing stream %q with %d pending tasks", s.name, n))
	}
	s.dead = true
	s.stagedMu.Unlock()
	s.mu.Unlock()
	for i, t := range e.streams {
		if t == s {
			e.streams = append(e.streams[:i], e.streams[i+1:]...)
			e.snap.Store(nil)
			return
		}
	}
}

// Streams returns a snapshot of all live streams. The snapshot is
// cached and shared between callers — treat it as read-only.
func (e *Engine) Streams() []*Stream {
	if p := e.snap.Load(); p != nil {
		return *p
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Stream, len(e.streams))
	copy(out, e.streams)
	e.snap.Store(&out)
	return out
}

// ProgressAll attempts progress on every stream once and reports
// whether any stream made progress. Contended streams are skipped
// rather than waited on: their owners are progressing them already,
// and blocking here would serialize disjoint contexts (the trylock
// discipline behind the paper's Figure 9 fix).
func (e *Engine) ProgressAll() bool {
	made := false
	for _, s := range e.Streams() {
		if m, _ := s.TryProgress(); m {
			made = true
		}
	}
	return made
}

// Pending returns the total number of pending operations across all
// streams (Stream.Pending).
func (e *Engine) Pending() int {
	total := 0
	for _, s := range e.Streams() {
		total += s.Pending()
	}
	return total
}
