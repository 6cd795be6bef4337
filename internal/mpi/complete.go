package mpi

import "gompix/internal/core"

// Idiomatic Go completion bridges over MPIX Continue. These are the
// request-level entry points of the completion model (DESIGN.md §13):
//
//   - OnComplete / OnCompleteStream — callback on the owning stream's
//     progress pass; the building block.
//   - Done — completion as a channel, for select loops and context
//     bridges.
//
// All of them require progress to be driven by someone: the waiter
// itself (Wait/Test on some request), a progress thread
// (Proc.ProgressThread), or an application progress loop. A callback
// never fires and a Done channel never delivers on a stream nobody
// progresses.

// OnComplete registers cb to run with the request's status once the
// request completes. The callback executes inside a progress pass of
// the request's own stream — never inline in the transport drain that
// completed the operation, and never on the registering goroutine —
// so its execution context is serial and predictable. If the request
// has already completed, cb is enqueued all the same (the policy is
// always deferred; for immediate-if-complete semantics use a
// ContinueRequest without ContDefer).
//
// cb runs under the stream's progress lock: it must not block and must
// not wait on or progress any stream. Initiating new operations and
// registering further completions is fine — that is how continuation
// chains are built.
func (r *Request) OnComplete(cb func(Status)) {
	r.OnCompleteStream(r.stream(), cb)
}

// OnCompleteStream is OnComplete with the callback executed by s's
// progress passes instead of the request's own stream — the
// cross-stream handoff: a completion observed by a transport drain on
// one stream is delivered to application code living on another. A nil
// stream selects the request's own stream.
func (r *Request) OnCompleteStream(s *core.Stream, cb func(Status)) {
	if s == nil {
		s = r.stream()
	}
	c := &opCont{s: s, cb: cb}
	c.node.rec = c
	if !r.addCont(&c.node) {
		c.arrive(0, r.status) // already complete: still deliver via the stream
	}
}

// Done returns a channel that delivers the request's status exactly
// once, at completion. The send happens from the completing context
// into a buffered channel, so it never blocks progress; receive it
// from any goroutine, select on it, or bridge it to a context:
//
//	select {
//	case st := <-req.Done():
//	    use(st)
//	case <-ctx.Done():
//	    req.Cancel()
//	}
//
// Each call returns a fresh channel (call it once and share the
// channel if multiple consumers select on the same request). As with
// all completion notification, some goroutine must drive progress —
// a Done channel on an otherwise idle rank pairs naturally with
// Proc.ProgressThread.
func (r *Request) Done() <-chan Status {
	ch := make(chan Status, 1)
	if !r.addCont(&contNode{rec: doneChan(ch)}) {
		ch <- r.status
	}
	return ch
}

// doneChan is Done's record: the completing context sends the status
// into the cap-1 channel.
type doneChan chan Status

func (ch doneChan) arrive(_ int, st Status) { ch <- st }
