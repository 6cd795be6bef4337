package mpi

import (
	"sync"
	"sync/atomic"

	"gompix/internal/core"
)

// MPIX Continue (paper §5.4, Schuchart et al., "Callback-based
// Completion Notification using MPI Continuations"): completion
// callbacks attached to requests and request sets, executed from the
// progress context of the stream that owns the continuation request —
// never inline in whatever transport drain happened to complete the
// operation. A transport completion only *enqueues* the callback onto
// the owning stream's run-queue (core.Stream.Defer); the stream's next
// progress pass *executes* it. That gives callbacks a serial,
// predictable execution context no matter which rank, socket drain, or
// failure sweep produced the completion.
//
// The paper positions MPIX Async plus RequestIsComplete as the more
// explicit alternative; both are implemented here so the benchmark
// harness can compare them (progressbench -workload cont).

// ContFlag adjusts continuation registration (the MPIX_CONT_* flags).
type ContFlag uint8

const (
	// ContDefer forces the callback of an already-complete operation
	// through the stream's run-queue instead of running it inline on
	// the registering caller (MPIX_CONT_DEFER_COMPLETE). Use it when
	// the callback must only ever observe the world from the progress
	// context — e.g. it touches state owned by the progress goroutine.
	ContDefer ContFlag = 1 << iota

	// ContFailFast completes the continuation request as soon as any
	// registered operation completes with an error, without waiting for
	// the rest of the set. Callbacks of the remaining operations still
	// run when their operations complete; only the aggregate completes
	// early, carrying the first error observed.
	ContFailFast
)

func foldFlags(base ContFlag, extra []ContFlag) ContFlag {
	for _, f := range extra {
		base |= f
	}
	return base
}

// ContinueRequest aggregates continuations (the cont_req of
// MPIX_Continue_init): it completes when every continuation registered
// on it has executed — or, with ContFailFast, as soon as one completes
// with an error. The aggregate is itself a first-class request: Test,
// Wait, Done, OnComplete, and registration on another ContinueRequest
// all work, so continuation graphs compose.
type ContinueRequest struct {
	req    *Request
	stream *core.Stream
	flags  ContFlag

	// state packs the aggregate's wave bookkeeping into one word:
	// [generation:32][completing:1][count:31]. The generation advances
	// at every Reset, and every mutation is a CAS conditioned on the
	// generation it was registered under — a continuation straggling in
	// from before a Reset (possible after a ContFailFast early
	// completion) can therefore never decrement the new wave's count,
	// complete it early, or latch an error into it. The completing bit
	// elects a single completer among racing decrements.
	state   atomic.Uint64
	started atomic.Bool

	// firstErr is the first callback-observed error of the current
	// generation (errGen), latched under mu and published as the
	// aggregate's Status.Err.
	mu       sync.Mutex
	firstErr error
	errGen   uint32
}

const (
	contGenShift   = 32
	contCompleting = 1 << 31
	contCountMask  = contCompleting - 1
)

// ContinueInit creates a continuation-aggregation request
// (MPIX_Continue_init) whose callbacks execute on the NULL stream.
// Flags set here apply to every registration; Continue can add more
// per operation.
func (p *Proc) ContinueInit(flags ...ContFlag) *ContinueRequest {
	return p.ContinueInitOn(nil, flags...)
}

// ContinueInitOn is ContinueInit bound to a stream created with
// StreamCreate: callbacks execute in that stream's progress passes, and
// waiting on the aggregate drives that stream. A nil stream selects the
// NULL stream.
func (p *Proc) ContinueInitOn(s *core.Stream, flags ...ContFlag) *ContinueRequest {
	v := p.nullVCI
	if s == nil {
		s = v.stream
	} else if s != v.stream {
		v = p.vciFor(s)
	}
	return &ContinueRequest{
		req:    &Request{kind: kindContinue, vci: v, proc: p},
		stream: s,
		flags:  foldFlags(0, flags),
	}
}

// Request returns the underlying waitable request handle.
func (cr *ContinueRequest) Request() *Request { return cr.req }

// Stream returns the stream whose progress passes execute this
// aggregate's callbacks.
func (cr *ContinueRequest) Stream() *core.Stream { return cr.stream }

// Start arms the aggregation: once started, the request completes when
// the number of outstanding continuations reaches zero. Starting with
// nothing registered completes immediately (an empty set is complete).
func (cr *ContinueRequest) Start() {
	cr.started.Store(true)
	cr.maybeComplete(uint32(cr.state.Load() >> contGenShift))
}

// NPending returns the number of registered continuations of the
// current wave that have not yet executed.
func (cr *ContinueRequest) NPending() int { return int(cr.state.Load() & contCountMask) }

// Test invokes one progress pass on the owning stream and reports
// completion with the aggregate status.
func (cr *ContinueRequest) Test() (Status, bool) { return cr.req.Test() }

// Wait blocks until the aggregate completes, driving progress on the
// owning stream, and returns the aggregate status (Err is the first
// error any callback observed, nil if all operations completed clean).
func (cr *ContinueRequest) Wait() Status { return cr.req.Wait() }

// IsComplete reports completion without invoking progress.
func (cr *ContinueRequest) IsComplete() bool { return cr.req.IsComplete() }

// Reset re-arms a completed aggregate for reuse (the persistent-request
// idiom): the same ContinueRequest can aggregate successive waves of
// continuations without reallocating. It panics (deterministically) if
// the aggregate has not completed.
//
// Drain contract: a ContFailFast early completion can leave the
// completed wave with callbacks still outstanding. Reset is safe then
// — the stragglers are orphaned onto the old generation: their
// callbacks still execute when their operations complete (observation
// is never lost), but they no longer count toward the new wave and
// their errors do not latch into it. Callers that need the previous
// wave fully executed before reusing its resources should drain first
// (spin on NPending() == 0 while driving progress).
func (cr *ContinueRequest) Reset() {
	if !cr.req.flag.IsSet() {
		panic("mpi: Reset of an incomplete ContinueRequest")
	}
	cr.mu.Lock()
	gen := uint32(cr.state.Load()>>contGenShift) + 1
	cr.state.Store(uint64(gen) << contGenShift)
	cr.firstErr = nil
	cr.errGen = gen
	cr.mu.Unlock()
	cr.started.Store(false)
	cr.req.status = Status{}
	cr.req.obsOnce.Store(false)
	cr.req.flag.Reset()
}

// register accounts one continuation against the current wave and
// returns the generation it belongs to.
func (cr *ContinueRequest) register() uint32 {
	for {
		s := cr.state.Load()
		if cr.state.CompareAndSwap(s, s+1) {
			return uint32(s >> contGenShift)
		}
	}
}

// maybeComplete completes the aggregate when gen's wave is started,
// drained, and not yet completed. The CAS on the completing bit elects
// a single completer among racing decrements; the generation check
// makes a straggler from a Reset wave a no-op.
func (cr *ContinueRequest) maybeComplete(gen uint32) {
	if !cr.started.Load() {
		return
	}
	for {
		s := cr.state.Load()
		if uint32(s>>contGenShift) != gen || s&contCompleting != 0 || s&contCountMask != 0 {
			return
		}
		if cr.state.CompareAndSwap(s, s|contCompleting) {
			cr.complete(gen)
			return
		}
	}
}

// complete publishes gen's aggregate status. Only the elected
// completer calls it.
func (cr *ContinueRequest) complete(gen uint32) {
	cr.mu.Lock()
	var err error
	if cr.errGen == gen {
		err = cr.firstErr
	}
	cr.mu.Unlock()
	cr.req.complete(Status{Err: err})
}

// retire accounts one executed callback of the wave it was registered
// under: latch its error, complete the aggregate early under
// ContFailFast, and complete normally when the set drains. A retire
// whose generation has been Reset away is a no-op (beyond having run
// its callback).
func (cr *ContinueRequest) retire(st Status, flags ContFlag, gen uint32) {
	if st.Err != nil {
		cr.mu.Lock()
		if cr.errGen == gen && cr.firstErr == nil {
			cr.firstErr = st.Err
		}
		cr.mu.Unlock()
	}
	for {
		s := cr.state.Load()
		if uint32(s>>contGenShift) != gen {
			return // orphaned by a Reset
		}
		if cr.state.CompareAndSwap(s, s-1) {
			break
		}
	}
	if st.Err != nil && flags&ContFailFast != 0 && cr.started.Load() {
		for {
			s := cr.state.Load()
			if uint32(s>>contGenShift) != gen || s&contCompleting != 0 {
				return
			}
			if cr.state.CompareAndSwap(s, s|contCompleting) {
				cr.complete(gen)
				return
			}
		}
	}
	cr.maybeComplete(gen)
}

// Continue attaches cb to op (MPIX_Continue). When op completes, cb is
// enqueued on the aggregate's stream and runs with the operation's
// status inside that stream's next progress pass — including failure
// statuses: an operation completed by a peer-death or revocation sweep
// delivers its wrapped ErrProcFailed/ErrCommRevoked through Status.Err,
// so continuations observe faults instead of leaking.
//
// If op has already completed, cb runs immediately on the caller
// unless ContDefer is set (here or at init), in which case it is
// enqueued like any other. The continuation is accounted against cr
// until it has executed; register before Start, or after a Reset.
//
// cb executes under the stream's progress lock: it must not block and
// must not wait on or progress any stream. Initiating operations and
// registering further continuations is fine — that is how chains are
// built.
func (cr *ContinueRequest) Continue(op *Request, cb func(Status), flags ...ContFlag) {
	eff := foldFlags(cr.flags, flags)
	gen := cr.register()
	enq := func(r *Request) {
		st := r.status
		cr.stream.Defer(func() {
			cb(st)
			cr.retire(st, eff, gen)
		})
	}
	if op.tryAddContinuation(enq) {
		return
	}
	// Already complete. Honor the deferred policy, else run inline.
	if eff&ContDefer != 0 {
		enq(op)
		return
	}
	st := op.status
	cb(st)
	cr.retire(st, eff, gen)
}

// ContinueAll attaches one callback to a request set
// (MPIX_Continueall): cb runs exactly once, when every operation in the
// set has completed, with the per-operation statuses in registration
// order. Failed operations carry their error in their Status slot, so
// partial completions are observable — some statuses clean, some with
// ErrProcFailed — while the set still converges. An empty set fires
// immediately.
func (cr *ContinueRequest) ContinueAll(ops []*Request, cb func([]Status), flags ...ContFlag) {
	if len(ops) == 0 {
		eff := foldFlags(cr.flags, flags)
		gen := cr.register()
		if eff&ContDefer != 0 {
			cr.stream.Defer(func() {
				cb(nil)
				cr.retire(Status{}, eff, gen)
			})
			return
		}
		cb(nil)
		cr.retire(Status{}, eff, gen)
		return
	}
	sts := make([]Status, len(ops))
	var left atomic.Int64
	left.Store(int64(len(ops)))
	for i, op := range ops {
		i := i
		cr.Continue(op, func(s Status) {
			sts[i] = s
			if left.Add(-1) == 0 {
				cb(sts)
			}
		}, flags...)
	}
}

// ContinueEach attaches one callback to many requests, invoked once per
// completed request with its index and status — the streaming
// counterpart of ContinueAll for when per-operation reaction matters
// more than set convergence.
func (cr *ContinueRequest) ContinueEach(ops []*Request, cb func(int, Status), flags ...ContFlag) {
	for i, op := range ops {
		i := i
		cr.Continue(op, func(s Status) { cb(i, s) }, flags...)
	}
}
