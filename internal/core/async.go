package core

// This file implements the MPIX Async extension (paper §3.3): user
// progress hooks polled from inside MPI progress.

import (
	"sync"

	"gompix/internal/trace"
)

// PollOutcome is the result of one async thing poll.
type PollOutcome int

const (
	// NoProgress means the task is still pending and nothing advanced
	// (MPIX_ASYNC_NOPROGRESS).
	NoProgress PollOutcome = iota
	// Progressed means the task advanced but is not complete. Progress
	// treats it like any subsystem progress (stops the collated pass).
	Progressed
	// Done means the task completed. The poll function must have
	// released any application state before returning Done; the engine
	// then drops the thing (paper: "the MPI library will then free the
	// context behind MPIX_Async_thing").
	Done
)

func (o PollOutcome) String() string {
	switch o {
	case NoProgress:
		return "NoProgress"
	case Progressed:
		return "Progressed"
	case Done:
		return "Done"
	default:
		return "PollOutcome(?)"
	}
}

// PollFunc is a user progress hook (MPIX_Async_poll_function). It is
// called from inside Stream.Progress with the owning stream's lock
// held. It must be lightweight (paper §4.2) and must not invoke
// progress recursively; use Request completion queries such as
// mpi.Request.IsComplete to observe MPI operations from inside a poll.
type PollFunc func(Thing) PollOutcome

// Thing is the opaque per-task handle passed to a PollFunc
// (MPIX_Async_thing). It carries the user state and supports spawning
// follow-up tasks from inside the poll.
type Thing interface {
	// State returns the extra_state registered at AsyncStart
	// (MPIX_Async_get_state).
	State() any
	// Stream returns the stream the thing is attached to.
	Stream() *Stream
	// Engine returns the owning engine (for Wtime etc.).
	Engine() *Engine
	// Spawn registers a new async thing from inside a poll function
	// (MPIX_Async_spawn). The spawned task is staged and becomes
	// pollable after the current poll returns, avoiding recursion and
	// re-entrant queue manipulation. A nil stream spawns onto the same
	// stream as the current thing.
	Spawn(poll PollFunc, state any, stream *Stream)
}

// task is the engine-side context behind a Thing, kept in an intrusive
// doubly-linked list per stream.
type task struct {
	poll   PollFunc
	state  any
	stream *Stream

	prev, next *task

	// spawned buffers tasks created via Spawn during the current poll.
	spawned []*task

	// spanID correlates the thing's begin/end trace span; 0 when the
	// engine has no tracer.
	spanID uint64
}

var _ Thing = (*task)(nil)

// taskPool recycles task nodes so a start/poll/done cycle does not
// allocate in steady state. A task is returned to the pool only after
// Done, when the engine owns it exclusively (the Thing contract says
// the context is freed once the poll returns Done).
var taskPool = sync.Pool{New: func() any { return new(task) }}

func newTask(poll PollFunc, state any, stream *Stream) *task {
	t := taskPool.Get().(*task)
	t.poll, t.state, t.stream = poll, state, stream
	return t
}

func recycleTask(t *task) {
	*t = task{}
	taskPool.Put(t)
}

func (t *task) State() any      { return t.state }
func (t *task) Stream() *Stream { return t.stream }
func (t *task) Engine() *Engine { return t.stream.eng }

func (t *task) Spawn(poll PollFunc, state any, stream *Stream) {
	if poll == nil {
		panic("core: Spawn with nil poll function")
	}
	if stream == nil {
		stream = t.stream
	}
	t.spawned = append(t.spawned, newTask(poll, state, stream))
}

// AsyncStart registers a user async thing on the stream
// (MPIX_Async_start). The poll function will be invoked from subsequent
// Progress calls on this stream until it returns Done. AsyncStart never
// blocks behind a concurrent progress pass: the thing is staged and
// adopted at the next pass.
func (s *Stream) AsyncStart(poll PollFunc, state any) {
	if poll == nil {
		panic("core: AsyncStart with nil poll function")
	}
	t := newTask(poll, state, s)
	if e := s.eng; e.tracer != nil {
		t.spanID = e.asyncSeq.Add(1)
		e.traceAsync(s, t.spanID, trace.PhaseSpanBegin, "async.thing")
	}
	if em := s.eng.met; em != nil && em.reg.On() {
		em.asyncStarted.Inc()
		em.pendingAsync.Add(1)
	}
	s.stage(t)
}

// stage hands t to the stream's next pass. It never takes s.mu, so it
// is safe from any goroutine and from inside another stream's pass.
func (s *Stream) stage(t *task) {
	s.stagedMu.Lock()
	if s.dead {
		s.stagedMu.Unlock()
		panic("core: async thing started on a freed stream")
	}
	s.staged = append(s.staged, t)
	// Counted before the lock is released: FreeStream reads Pending
	// under stagedMu and must not see 0 with the task already appended.
	s.nStaged.Add(1)
	s.stagedMu.Unlock()
	s.arrived()
}

// adoptStagedLocked moves staged things into the pollable list.
// Caller holds s.mu.
func (s *Stream) adoptStagedLocked() {
	if s.nStaged.Load() == 0 {
		return
	}
	s.stagedMu.Lock()
	staged := s.staged
	s.staged = nil
	s.stagedMu.Unlock()
	s.nStaged.Add(-int64(len(staged)))
	for _, t := range staged {
		s.pushLocked(t)
	}
}

func (s *Stream) pushLocked(t *task) {
	t.prev = s.tail
	t.next = nil
	if s.tail != nil {
		s.tail.next = t
	} else {
		s.head = t
	}
	s.tail = t
	s.nAsync.Add(1)
}

func (s *Stream) removeLocked(t *task) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		s.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		s.tail = t.prev
	}
	t.prev, t.next = nil, nil
	s.nAsync.Add(-1)
}

// pollAsyncLocked polls every pending async thing once, in registration
// order, mirroring the paper's observation that each progress call
// invokes poll_fn for every pending task (Fig. 7). Caller holds s.mu.
// em/on carry the caller's already-resolved metrics guard; the returned
// polls count feeds the polls-per-progress-call distribution.
func (s *Stream) pollAsyncLocked(em *engineMetrics, on bool) (made bool, polls int) {
	s.adoptStagedLocked()
	for t := s.head; t != nil; {
		next := t.next
		s.stats.asyncPolls.Add(1)
		polls++
		outcome := t.poll(t)
		if len(t.spawned) > 0 {
			spawned := t.spawned
			t.spawned = nil
			for _, nt := range spawned {
				if e := s.eng; e.tracer != nil {
					nt.spanID = e.asyncSeq.Add(1)
					e.traceAsync(nt.stream, nt.spanID, trace.PhaseSpanBegin, "async.thing")
				}
				if on {
					em.asyncStarted.Inc()
					em.pendingAsync.Add(1)
				}
				if nt.stream == s {
					// Same stream: adopt directly; it will be polled
					// starting from the next pass (it is appended at
					// the tail, and if it lands after the cursor it is
					// even polled this pass, which is harmless).
					s.pushLocked(nt)
				} else {
					// Cross-stream spawn: stage it on the target
					// stream. Never takes another stream's main lock,
					// so no lock-order deadlock is possible.
					nt.stream.stage(nt)
				}
			}
		}
		switch outcome {
		case Done:
			s.removeLocked(t)
			s.stats.asyncDone.Add(1)
			made = true
			if t.spanID != 0 {
				s.eng.traceAsync(s, t.spanID, trace.PhaseSpanEnd, "async.thing")
			}
			if on {
				em.asyncDone.Inc()
				em.asyncRetired.Inc()
				em.pendingAsync.Add(-1)
			}
			recycleTask(t)
		case Progressed:
			made = true
			if on {
				em.asyncProgressed.Inc()
			}
		case NoProgress:
			// keep polling next pass
			if on {
				em.asyncNoProgress.Inc()
			}
		default:
			panic("core: poll function returned invalid outcome")
		}
		t = next
	}
	return made, polls
}
