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
// A registration is one record: its nodes sit on the completion lists
// of the requests it watches (Request.addCont), and Request.complete
// hands each node the status. Continue, each operation of a
// ContinueEach, and OnCompleteStream are an opCont; a whole
// ContinueAll set is one allCont that defers its callback once.
//
// The paper positions MPIX Async plus RequestIsComplete as the more
// explicit alternative; both are implemented here so they can be
// compared on the same traffic: benchmark/'s progress-sim workload
// observes each 64-message window through one ContinueAll, and its
// contpoll driver (mpi.contpoll_rate_mmsg_s) rescans the window with
// IsComplete instead.

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
	cr.elect(uint32(cr.state.Load()>>contGenShift), true)
}

// NPending returns the number of registrations of the current wave
// whose callbacks have not yet executed. Continue and each operation of
// a ContinueEach count one each; a ContinueAll counts one for the whole
// set, as MPIX_Continueall does.
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
	cr.req.rearm()
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

// elect completes gen's aggregate if it is started and not yet
// completed, and — when drained is set — every registration of the
// wave has retired. The CAS on the completing bit elects a single
// completer among racing retires; the generation check makes a
// straggler from a Reset wave a no-op.
func (cr *ContinueRequest) elect(gen uint32, drained bool) {
	if !cr.started.Load() {
		return
	}
	for {
		s := cr.state.Load()
		if uint32(s>>contGenShift) != gen || s&contCompleting != 0 || drained && s&contCountMask != 0 {
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

// latch records err as gen's aggregate error unless an earlier one is
// already latched.
func (cr *ContinueRequest) latch(err error, gen uint32) {
	if err == nil {
		return
	}
	cr.mu.Lock()
	if cr.errGen == gen && cr.firstErr == nil {
		cr.firstErr = err
	}
	cr.mu.Unlock()
}

// retire accounts one executed callback of the wave it was registered
// under: latch its error, complete the aggregate early under
// ContFailFast, and complete normally when the wave drains. A retire
// whose generation has been Reset away is a no-op (beyond having run
// its callback).
func (cr *ContinueRequest) retire(err error, flags ContFlag, gen uint32) {
	cr.latch(err, gen)
	for {
		s := cr.state.Load()
		if uint32(s>>contGenShift) != gen {
			return // orphaned by a Reset
		}
		if cr.state.CompareAndSwap(s, s-1) {
			break
		}
	}
	cr.elect(gen, err == nil || flags&ContFailFast == 0)
}

// opCont is the record of one callback on one operation: a Continue,
// one operation of a ContinueEach (each, with the index in node.i), or
// an OnCompleteStream (cr nil: nothing to retire).
type opCont struct {
	node  contNode
	s     *core.Stream
	cr    *ContinueRequest
	cb    func(Status)
	each  func(int, Status)
	st    Status
	gen   uint32
	flags ContFlag
}

func (c *opCont) arrive(_ int, st Status) {
	c.st = st
	c.s.Defer(c.run)
}

func (c *opCont) run() {
	if c.each != nil {
		c.each(c.node.i, c.st)
	} else {
		c.cb(c.st)
	}
	if c.cr != nil {
		c.cr.retire(c.st.Err, c.flags, c.gen)
	}
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
	cr.continueOp(op, &opCont{cb: cb}, 0, foldFlags(cr.flags, flags))
}

// ContinueEach attaches one callback to many requests, invoked once per
// completed request with its index and status — the streaming
// counterpart of ContinueAll for when per-operation reaction matters
// more than set convergence. Each operation is its own registration.
func (cr *ContinueRequest) ContinueEach(ops []*Request, cb func(int, Status), flags ...ContFlag) {
	eff := foldFlags(cr.flags, flags)
	for i, op := range ops {
		cr.continueOp(op, &opCont{each: cb}, i, eff)
	}
}

// continueOp registers c, the record of operation i, on op and on the
// aggregate.
func (cr *ContinueRequest) continueOp(op *Request, c *opCont, i int, flags ContFlag) {
	c.node = contNode{rec: c, i: i}
	c.s, c.cr, c.flags, c.gen = cr.stream, cr, flags, cr.register()
	if op.addCont(&c.node) {
		return
	}
	// Already complete. Honor the deferred policy, else run inline.
	if flags&ContDefer != 0 {
		c.arrive(i, op.status)
		return
	}
	c.st = op.status
	c.run()
}

// allCont is the record of a ContinueAll: one registration on the
// aggregate for the whole set, one node per operation. Each arrival
// fills its status slot and counts down; the last one hands the set
// callback to the stream once.
type allCont struct {
	cr    *ContinueRequest
	cb    func([]Status)
	sts   []Status
	nodes []contNode
	left  atomic.Int32 // arrivals outstanding
	errAt atomic.Int32 // index of the first errored arrival, -1 for none
	gen   uint32
	flags ContFlag
}

// ContinueAll attaches one callback to a request set
// (MPIX_Continueall): cb runs exactly once, when every operation in the
// set has completed, with the per-operation statuses in registration
// order. Failed operations carry their error in their Status slot, so
// partial completions are observable — some statuses clean, some with
// ErrProcFailed — while the set still converges. An empty set fires
// immediately. The set is one registration on cr (see NPending).
//
// If every operation has already completed, cb runs on the caller
// unless ContDefer is set. Under ContFailFast the first failed
// operation completes cr early, in a pass of its stream, and the set's
// callback still runs once the rest of the set completes.
func (cr *ContinueRequest) ContinueAll(ops []*Request, cb func([]Status), flags ...ContFlag) {
	a := &allCont{cr: cr, cb: cb, flags: foldFlags(cr.flags, flags), gen: cr.register()}
	a.errAt.Store(-1)
	if len(ops) == 0 {
		a.dispatch(a.run, true)
		return
	}
	a.sts = make([]Status, len(ops))
	a.nodes = make([]contNode, len(ops))
	a.left.Store(int32(len(ops)))
	for i, op := range ops {
		n := &a.nodes[i]
		n.rec, n.i = a, i
		if !op.addCont(n) {
			a.arrived(i, op.status, true)
		}
	}
}

func (a *allCont) arrive(i int, st Status) { a.arrived(i, st, false) }

// arrived records operation i's status; inline marks an operation found
// already complete at registration. The last arrival dispatches the set
// callback; a first error under ContFailFast dispatches the early
// completion instead of waiting for the count.
func (a *allCont) arrived(i int, st Status, inline bool) {
	a.sts[i] = st
	first := st.Err != nil && a.errAt.CompareAndSwap(-1, int32(i))
	if a.left.Add(-1) == 0 {
		a.dispatch(a.run, inline)
	} else if first && a.flags&ContFailFast != 0 {
		a.dispatch(a.failFast, inline)
	}
}

// dispatch runs fn on the registering caller when the arrival was
// inline and ContDefer is unset, else in a pass of the aggregate's
// stream.
func (a *allCont) dispatch(fn func(), inline bool) {
	if inline && a.flags&ContDefer == 0 {
		fn()
		return
	}
	a.cr.stream.Defer(fn)
}

// err returns the set's first error in arrival order.
func (a *allCont) err() error {
	if i := a.errAt.Load(); i >= 0 {
		return a.sts[i].Err
	}
	return nil
}

func (a *allCont) run() {
	a.cb(a.sts)
	a.cr.retire(a.err(), a.flags, a.gen)
}

// failFast is the ContFailFast early completion: latch the error and
// complete the aggregate without counting the set down.
func (a *allCont) failFast() {
	a.cr.latch(a.err(), a.gen)
	a.cr.elect(a.gen, false)
}
