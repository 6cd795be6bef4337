package core

// This file implements the per-stream continuation run-queue behind
// MPIX Continue (Schuchart et al., "Callback-based Completion
// Notification using MPI Continuations"): deferred callbacks handed to
// a stream by whatever context observed an event — often a *different*
// stream's transport drain — and executed by normal progress on the
// owning stream. The queue is the mechanism that keeps the paper's
// promise that completion callbacks run in a well-defined serial
// context: a transport drain completing a request only *enqueues*; the
// owning stream's next progress pass *executes*.

// Defer enqueues fn for execution by a subsequent progress pass on this
// stream (the ClassCont drain). It is safe to call from any goroutine,
// including from inside another stream's progress pass — the
// cross-stream completion handoff — and from inside this stream's own
// pass (the follow-up runs on a later pass, never recursively).
//
// fn runs with the stream lock held, under the same contract as a
// PollFunc: it must be lightweight, must not block, and must not invoke
// progress recursively. Initiating new operations (Isend/Irecv,
// AsyncStart, further Defers) is fine; waiting on them is not.
func (s *Stream) Defer(fn func()) {
	if fn == nil {
		panic("core: Defer with nil callback")
	}
	// stagedMu guards the queue for the same reason it guards staged
	// async things: FreeStream's check-and-mark holds it, so a Defer
	// either lands before the pending check (and makes FreeStream
	// panic) or observes the dead mark — a callback can never be
	// stranded on a half-freed stream. nCont is bumped inside the
	// critical section so that check never reads 0 past an append.
	s.stagedMu.Lock()
	if s.dead {
		s.stagedMu.Unlock()
		panic("core: Defer on a freed stream")
	}
	s.contQ = append(s.contQ, fn)
	s.nCont.Add(1)
	s.stagedMu.Unlock()
	s.arrived()
}

// PendingCont returns the number of continuation callbacks queued on
// the stream and not yet executed.
func (s *Stream) PendingCont() int { return int(s.nCont.Load()) }

// drainContLocked executes the continuation callbacks queued at entry,
// in FIFO order. Callbacks deferred *by* these callbacks (chains) run
// on a later pass, mirroring the async-thing rule that one progress
// call polls each pending task once — an unbounded chain cannot starve
// the other subsystem classes. Caller holds s.mu.
func (s *Stream) drainContLocked() (made bool, polls int) {
	s.stagedMu.Lock()
	q := s.contQ
	// Hand the previous drained batch's backing array back as the new
	// queue so a steady-state enqueue/drain cycle does not allocate.
	s.contQ = s.contFree[:0]
	s.stagedMu.Unlock()
	if len(q) == 0 {
		s.contFree = q
		return false, 0
	}
	s.nCont.Add(-int64(len(q)))
	for i, fn := range q {
		fn()
		q[i] = nil // release the closure; the array is recycled
		polls++
	}
	s.contFree = q
	return true, polls
}
