// Package coll implements nonblocking collective operations as
// progress-driven schedules, the way MPICH structures them: a
// collective is a fixed graph of point-to-point operations and local
// computation steps. The progress engine has no collective-schedule
// hook (the Collective_sched_progress entry of the paper's Listing
// 1.1): an in-flight Schedule is an async thing of its stream (Start),
// advanced by MPIX_Async_start and side-effect-free completion queries
// alone — the paper's Listing 1.8 claim, held by the library itself.
//
// The package is transport-agnostic: algorithms build a Schedule
// against a small Transport interface, which the MPI layer implements
// on its communicator's collective context; Issue admits operations
// issued some other way (MPIX Schedule, internal/sched, is a builder
// over this type).
//
// Stages come in two flavors. A strict stage (AddStage) completes when
// every operation in it has, and any operation error aborts the whole
// schedule — the classic MPI collective contract. A quorum stage
// (AddQuorum) is the relaxed, eager-SGD-shaped contract: receive
// operations fold their payloads the moment they land, the stage
// settles once enough contributions are in and a staleness bound
// expires, and stragglers are abandoned (cancelled, or handed to the
// caller) instead of waited for.
package coll

import (
	"sync/atomic"

	"gompix/internal/core"
)

// Completable is a pending operation whose completion can be queried
// without side effects (an MPI request behind the scenes).
type Completable interface {
	IsComplete() bool
}

// Transport issues the point-to-point operations a schedule needs.
// Implementations route them through a communicator's collective
// context so they never match application traffic.
type Transport interface {
	// Rank is the caller's rank in the group.
	Rank() int
	// Size is the group size.
	Size() int
	// Isend starts a nonblocking raw-byte send to dst.
	Isend(data []byte, dst, tag int) Completable
	// Irecv starts a nonblocking raw-byte receive from src.
	Irecv(buf []byte, src, tag int) Completable
}

// Op is one schedule operation. An operation that moves bytes names
// them by a ref into its schedule's buffer table, never by a slice of
// its own, so the schedule can be pointed at other buffers between
// runs (Bind).
type Op interface {
	// start issues the operation.
	start(s *Schedule)
	// isComplete reports whether it has finished.
	isComplete(s *Schedule) bool
	// err reports the operation's delivery error, if it completed with
	// one (a dead peer, a downed link). Local steps never fail.
	err() error
	// cancel withdraws a still-pending issued operation when the
	// transport supports it (posted receives do, via Cancel).
	// Completion sweeps use it so an abandoned or aborted stage cannot
	// leak posted operations that poison later tag matches.
	// Best-effort: a send is withdrawn only while its receiver has not
	// answered it; local steps no-op.
	cancel()
	// reset rearms a finished operation for the schedule's next run:
	// it forgets the request and fold state of the last one and takes
	// the run's tag (operations without a tag ignore it).
	reset(tag int)
}

// opErr extracts a delivery error from a transport request, when the
// transport exposes one (MPI requests do, via Err). A nil or
// error-less request reports nil.
func opErr(req Completable) error {
	if req == nil {
		return nil
	}
	if e, ok := req.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// reqCancelled reports whether a transport request completed via
// cancellation (no payload delivered, no error either).
func reqCancelled(req Completable) bool {
	if c, ok := req.(interface{ Cancelled() bool }); ok {
		return c.Cancelled()
	}
	return false
}

// cancelReq invokes the request's Cancel, when it has one.
func cancelReq(req Completable) {
	if c, ok := req.(interface{ Cancel() error }); ok {
		c.Cancel()
	}
}

// ref names n bytes at off of buffer slot of a schedule's buffer table
// (Schedule.at), or, for an operation built over a slice of its own
// (Send, Recv, RecvReduce), that slice: lit, with slot -1. A ref with a
// spare names the first n bytes of that scratch slot instead in a run
// whose In and Out are one buffer (see landing).
type ref struct {
	slot, off, n int
	spare        int
	lit          []byte
}

// literal is a ref to a caller-supplied slice, which no Bind moves.
func literal(b []byte) ref { return ref{slot: -1, lit: b} }

// sendOp sends the bytes buf names to dst when its stage starts.
type sendOp struct {
	buf ref
	dst int
	tag int
	req Completable
}

func (o *sendOp) start(s *Schedule)         { o.req = s.tr.Isend(s.at(o.buf), o.dst, o.tag) }
func (o *sendOp) isComplete(*Schedule) bool { return o.req != nil && o.req.IsComplete() }
func (o *sendOp) err() error                { return opErr(o.req) }
func (o *sendOp) reset(tag int)             { o.tag, o.req = tag, nil }

// cancel withdraws a send its receiver has not answered, so that no
// late answer reads the schedule's buffers; one whose payload is on the
// wire, or may be read by its receiver, stands (the transport refuses).
func (o *sendOp) cancel() {
	if o.req != nil {
		cancelReq(o.req)
	}
}

// Send creates a send operation over data.
func Send(data []byte, dst, tag int) Op { return send(literal(data), dst, tag) }

// recvOp receives into the bytes buf names when its stage starts.
type recvOp struct {
	buf ref
	src int
	tag int
	req Completable
}

func (o *recvOp) start(s *Schedule)         { o.req = s.tr.Irecv(s.at(o.buf), o.src, o.tag) }
func (o *recvOp) isComplete(*Schedule) bool { return o.req != nil && o.req.IsComplete() }
func (o *recvOp) err() error                { return opErr(o.req) }
func (o *recvOp) cancel() {
	if o.req != nil {
		cancelReq(o.req)
	}
}

// busy reports whether the receive was issued and its transport may
// still write into the schedule's buffers: it has not completed.
func (o *recvOp) busy() bool    { return o.req != nil && !o.req.IsComplete() }
func (o *recvOp) reset(tag int) { o.tag, o.req = tag, nil }

// Recv creates a receive operation into buf.
func Recv(buf []byte, src, tag int) Op { return recv(literal(buf), src, tag) }

// recvReduceOp is a receive that folds its payload into the caller's
// accumulator the moment the payload lands — the substrate both the
// single-stage reduce tree and the relaxed allreduce are built on.
// fold runs exactly once, inside the progress poll that observes the
// completion (so it is serialized with every other schedule step), and
// only on a clean completion: an errored or cancelled receive
// contributes nothing.
type recvReduceOp struct {
	recvOp
	fold    func(in []byte)
	after   *recvReduceOp // folds only once after has decided; nil: at once
	decided bool
	folded  bool
}

func (o *recvReduceOp) reset(tag int) {
	o.recvOp.reset(tag)
	o.decided, o.folded = false, false
}

func (o *recvReduceOp) isComplete(s *Schedule) bool {
	if o.req == nil || !o.req.IsComplete() {
		return false
	}
	if !o.decided {
		if o.after != nil && !o.after.decided {
			return false
		}
		o.decided = true
		if opErr(o.req) == nil && !reqCancelled(o.req) {
			o.fold(s.at(o.buf))
			o.folded = true
		}
	}
	return true
}

// contributor marks operations that count toward a quorum stage's
// contribution tally: recvReduceOps that folded cleanly.
type contributor interface{ contributed() bool }

func (o *recvReduceOp) contributed() bool { return o.folded }

// RecvReduce creates a receive that calls fold(payload) as soon as the
// payload arrives. buf is the scratch landing buffer; fold typically
// reduces it into an accumulator shared by the stage's other
// RecvReduce ops, which requires the reduction to be commutative
// (arrival order is not deterministic).
func RecvReduce(buf []byte, src, tag int, fold func(in []byte)) Op {
	return recvReduce(literal(buf), src, tag, fold)
}

// localOp runs a function (a copy or reduction step) when its stage
// starts; it completes immediately. Local steps must be lightweight:
// they execute inside a progress poll.
type localOp struct {
	fn   func()
	done bool
}

func (o *localOp) start(*Schedule)           { o.fn(); o.done = true }
func (o *localOp) isComplete(*Schedule) bool { return o.done }
func (o *localOp) err() error                { return nil }
func (o *localOp) cancel()                   {}
func (o *localOp) reset(int)                 { o.done = false }

// Local creates a local computation operation.
func Local(fn func()) Op { return &localOp{fn: fn} }

// issueOp runs its function when its stage starts and completes when
// the Completable the function returned does (nil: at once).
type issueOp struct {
	issue  func() Completable
	req    Completable
	issued bool
}

func (o *issueOp) start(*Schedule)           { o.req, o.issued = o.issue(), true }
func (o *issueOp) isComplete(*Schedule) bool { return o.issued && (o.req == nil || o.req.IsComplete()) }
func (o *issueOp) err() error                { return opErr(o.req) }
func (o *issueOp) cancel()                   { cancelReq(o.req) }
func (o *issueOp) reset(int)                 { o.req, o.issued = nil, false }

// Issue creates an operation issued by fn instead of the Transport: fn
// runs when the stage starts, inside a progress poll. The request it
// returns is held to the Send/Recv rules: a delivery error aborts a
// strict stage, and a sweep cancels it if it is pending and can be.
func Issue(fn func() Completable) Op { return &issueOp{issue: fn} }

// gateOp holds its stage (and therefore every later stage) until ready
// reports true. It never fails; the schedule simply does not advance.
// The MPI layer uses it as the round-lag window of the relaxed
// allreduce: a round may not issue until the comm's resolution
// frontier is close enough behind.
type gateOp struct {
	ready func() bool
	open  bool
}

func (o *gateOp) start(*Schedule) {}
func (o *gateOp) isComplete(*Schedule) bool {
	if !o.open {
		o.open = o.ready()
	}
	return o.open
}
func (o *gateOp) err() error { return nil }
func (o *gateOp) cancel()    {}
func (o *gateOp) reset(int)  { o.open = false }

// Gate creates a pure wait operation that completes once ready reports
// true. ready is consulted from progress polls and must be cheap.
func Gate(ready func() bool) Op { return &gateOp{ready: ready} }

// QuorumStage configures a relaxed stage: instead of waiting for every
// operation, the stage settles once Need contributor operations have
// folded and the staleness bound fires. Per-operation errors do not
// abort the schedule — they are recorded, shrink the achievable
// quorum, and surface through OnSettle.
type QuorumStage struct {
	// Need is the number of contributor (RecvReduce) completions
	// required before the staleness bound may settle the stage. It is
	// capped by the number of contributors that can still possibly
	// deliver, so failed peers shrink the quorum instead of hanging it.
	Need int

	// Stale reports whether the staleness bound has expired. It is
	// consulted only while the quorum is met but stragglers remain;
	// implementations typically arm a grace deadline on first call. A
	// nil Stale waits for every operation to resolve (but still
	// tolerates per-operation errors).
	Stale func() bool

	// Abandon, when set, adopts a straggler receive's still-pending
	// request at settle time: the caller takes over its completion —
	// the MPI layer drains it into a per-comm reorder window so the
	// late payload is consumed instead of rotting in the peer's
	// unexpected queue. Returning false (or a nil Abandon) cancels the
	// request instead.
	Abandon func(src int, req Completable) bool

	// OnSettle runs exactly once when the stage settles, with the
	// number of contributions folded, the number of contributor
	// stragglers abandoned, and the first per-operation error observed
	// (nil when every resolved operation completed clean).
	OnSettle func(contributed, abandoned int, err error)

	firstErr error
	settled  bool
}

// stage is one schedule step: a strict all-must-complete group
// (q == nil) or a relaxed quorum group.
type stage struct {
	ops []Op
	q   *QuorumStage
}

// Schedule is a sequence of stages; all operations in a stage are
// issued together, and a stage completes when every operation in it
// has (strict stages) or when its quorum settles (quorum stages). The
// schedule completes when its last stage does.
//
// Operations reach their bytes through the schedule's buffer table:
// the caller's two buffers — In, the contribution, and Out, the result
// — and after them the buffers the schedule owns (scratch); an
// operation built over a slice of its own (Send, Recv, RecvReduce)
// keeps it. Bind points In and Out
// at other memory between runs, so one schedule serves call after call
// over each call's own buffers.
type Schedule struct {
	tr     Transport
	stages []stage
	cur    int
	issued bool
	done   core.CompletionFlag

	// err is the first strict-stage operation error observed; once set
	// the schedule aborts: remaining stages are never issued, the
	// interrupted stage's pending operations are cancelled, and the
	// schedule completes once none of that stage's receives can still
	// write its buffers (a collective must not hang on a dead peer, nor
	// write the caller's memory after it returned). Valid once
	// IsComplete reports true.
	err   error
	swept bool // the abort's sweep ran

	// abort, when set via Abort, carries an externally imposed abort
	// cause (a communicator revocation). The next Poll adopts it and
	// completes the schedule. Atomic because Abort may be called from
	// any context (an application thread revoking, a remote revoke frame
	// handler) while the owning stream polls.
	abort atomic.Pointer[error]

	// onComplete, if set, runs exactly once when the schedule finishes
	// (inside the progress poll that observes completion).
	onComplete func()

	// bufs is the buffer table: bufs[slotIn], bufs[slotOut], then the
	// owned ones.
	bufs [][]byte
	// acc is a builder's cursor: the slot that holds this rank's partial
	// result as stages are appended — In until the first fold, Out after
	// (see landing).
	acc int
}

// The caller's slots of a schedule's buffer table.
const (
	slotIn = iota
	slotOut
)

// NewSchedule creates an empty schedule over the transport, with no
// caller buffers bound.
func NewSchedule(tr Transport) *Schedule {
	return &Schedule{tr: tr, bufs: make([][]byte, 2, 4)}
}

// newSchedule creates an empty schedule with inout bound as both its
// contribution and its result — the in-place form every builder takes.
func newSchedule(tr Transport, inout []byte) *Schedule {
	s := NewSchedule(tr)
	s.Bind(inout, inout)
	return s
}

// Bind points the schedule's caller buffers at in, the contribution,
// and out, the result, for its next run; a nil in is MPI_IN_PLACE (out
// holds the contribution). Each must be as long as the one the schedule
// was built over. O(1) and allocation-free: operations resolve their
// bytes when they start, so a plan rebinds per call. Bind(nil, nil)
// lets go of the caller's memory. The caller must own the schedule, as
// for Reset.
func (s *Schedule) Bind(in, out []byte) {
	if in == nil {
		in = out
	}
	s.bufs[slotIn], s.bufs[slotOut] = in, out
}

// at resolves a ref against the buffer table.
func (s *Schedule) at(r ref) []byte {
	switch {
	case r.slot < 0:
		return r.lit
	case r.spare != 0 && s.inPlace():
		return s.bufs[r.spare][:r.n]
	}
	return s.bufs[r.slot][r.off : r.off+r.n]
}

// inPlace reports whether this run's In and Out are one buffer
// (MPI_IN_PLACE, or a builder's own binding).
func (s *Schedule) inPlace() bool {
	in, out := s.bufs[slotIn], s.bufs[slotOut]
	return len(in) > 0 && len(out) > 0 && &in[0] == &out[0]
}

// scratch adds an n-byte buffer the schedule owns and returns a ref to
// all of it.
func (s *Schedule) scratch(n int) ref {
	s.bufs = append(s.bufs, make([]byte, n))
	return ref{slot: len(s.bufs) - 1, n: n}
}

// out is a ref to n bytes of the result at off.
func (s *Schedule) out(off, n int) ref { return ref{slot: slotOut, off: off, n: n} }

// partial is a ref to n bytes at off of this rank's partial result —
// its contribution until the first fold appended, the result after.
func (s *Schedule) partial(off, n int) ref { return ref{slot: s.acc, off: off, n: n} }

// send, recv and recvReduce build transport operations over refs.
func send(b ref, dst, tag int) Op { return &sendOp{buf: b, dst: dst, tag: tag} }
func recv(b ref, src, tag int) Op { return &recvOp{buf: b, src: src, tag: tag} }
func recvReduce(b ref, src, tag int, fold func(in []byte)) *recvReduceOp {
	return &recvReduceOp{recvOp: recvOp{buf: b, src: src, tag: tag}, fold: fold}
}

// received records that a receive into Out was appended: the partial
// result lives there from now on.
func (s *Schedule) received(b ref) ref {
	s.acc = slotOut
	return b
}

// landing returns where a receive lands whose payload this rank folds
// into dst, a range of Out, and the bytes the fold then reduces into
// dst. The rank's first fold (its partial result is still In) is
// firstLanding's; every later one lands in tmp, scratch of at least
// dst.n bytes, and folds that.
func (s *Schedule) landing(dst, tmp ref) (land, with ref) {
	if s.acc == slotOut {
		tmp.n = dst.n
		return tmp, tmp
	}
	return s.firstLanding(dst, tmp)
}

// firstLanding is landing for the first fold into dst's range: the
// payload lands in dst itself and the fold reduces In's bytes of that
// range into it — Out = payload ⊕ In, every reduce being commutative —
// so In is never copied to Out. In a run whose In and Out are one
// buffer, dst holds the contribution: the payload lands in tmp and the
// fold reduces that, as a later fold does.
func (s *Schedule) firstLanding(dst, tmp ref) (land, with ref) {
	s.acc = slotOut
	land, with = dst, ref{slot: slotIn, off: dst.off, n: dst.n}
	land.spare, with.spare = tmp.slot, tmp.slot
	return land, with
}

// fold is a local step that reduces the bytes with names into dst.
func (s *Schedule) fold(dst, with ref, reduce func(inout, in []byte)) Op {
	return Local(func() { reduce(s.at(dst), s.at(with)) })
}

// settle ends a build whose rank must hold the result in Out: a rank
// that never folded nor received one copies its contribution there —
// nothing when In is Out.
func (s *Schedule) settle() {
	if s.acc == slotIn {
		s.AddStage(Local(func() {
			if !s.inPlace() {
				copy(s.bufs[slotOut], s.bufs[slotIn])
			}
		}))
		s.acc = slotOut
	}
}

// AddStage appends a strict stage. Empty stages are ignored.
func (s *Schedule) AddStage(ops ...Op) {
	if len(ops) == 0 {
		return
	}
	s.stages = append(s.stages, stage{ops: ops})
}

// AddQuorum appends a relaxed stage governed by q. Empty stages are
// ignored.
func (s *Schedule) AddQuorum(q QuorumStage, ops ...Op) {
	if len(ops) == 0 {
		return
	}
	s.stages = append(s.stages, stage{ops: ops, q: &q})
}

// OnComplete registers a completion callback (used by the MPI layer to
// complete the user-visible request).
func (s *Schedule) OnComplete(fn func()) { s.onComplete = fn }

// IsComplete reports schedule completion. One atomic load.
func (s *Schedule) IsComplete() bool { return s.done.IsSet() }

// Err returns the error that aborted the schedule, or nil if it ran
// (or is still running) cleanly. Valid once IsComplete reports true.
// Quorum-stage operation errors do not abort and are reported through
// OnSettle instead.
func (s *Schedule) Err() error { return s.err }

// Abort flags the schedule to complete with err: remaining stages are
// never issued, and the aborting poll cancels the interrupted stage's
// still-pending operations (posted receives are withdrawn from the
// matcher, unanswered sends from their receivers) so an abandoned
// schedule cannot leak posted operations into later tag matches. The
// schedule completes once every issued receive of that stage has
// resolved — cancelled, landed, or failed by its sender's abort or the
// transport's verdict — so nothing writes the caller's memory after
// completion. Safe from any context; a nil err or an already-completed
// schedule is a no-op.
func (s *Schedule) Abort(err error) {
	if err == nil || s.done.IsSet() {
		return
	}
	s.abort.CompareAndSwap(nil, &err)
}

// Reset rearms a completed (or never started) schedule for another run
// of the same collective under tag: the stage cursor, the abort state,
// the done flag and every operation's request and fold state go back to
// their initial values, the bound buffers and stage shapes stay (Bind
// rebinds the caller's). It is what lets the MPI layer build a
// collective's schedule once per signature and reuse it call after call
// (MPI-4's persistent collectives, kept inside the library). The caller
// must own the schedule outright: no stream still polls it and no
// transport still reads its buffers — a clean completion guarantees
// both, since a strict stage finishes only when its sends have. An
// aborted run guarantees only that no receive still writes them: a send
// the abort could not withdraw may still read them.
func (s *Schedule) Reset(tag int) {
	s.cur, s.issued, s.err, s.swept = 0, false, nil, false
	s.abort.Store(nil)
	for i := range s.stages {
		st := &s.stages[i]
		for _, op := range st.ops {
			op.reset(tag)
		}
		if st.q != nil {
			st.q.firstErr, st.q.settled = nil, false
		}
	}
	s.done.Reset()
}

// Start puts the schedule under stream's progress. It polls once at
// call time, so the first stage is issued before Start returns (as
// MPICH issues a collective's first operations at call time); a
// schedule still running after that becomes an async thing of the
// stream (MPIX_Async_start), polled in every pass until it completes.
func (s *Schedule) Start(stream *core.Stream) {
	if _, done := s.poll(); !done {
		stream.AsyncStart(s.AsyncPoll, nil)
	}
}

// AsyncPoll is Poll as a core.PollFunc. Start registers it; a caller
// whose first stage must wait for the stream's next pass does so itself.
func (s *Schedule) AsyncPoll(core.Thing) core.PollOutcome {
	switch made, done := s.poll(); {
	case done:
		return core.Done
	case made:
		return core.Progressed
	}
	return core.NoProgress
}

// Poll advances the schedule: it issues the current stage if needed,
// checks its operations, and moves on as stages finish. It returns true
// if any state changed. Poll is not safe for concurrent use; the owning
// progress stream serializes it.
func (s *Schedule) Poll() bool {
	made, _ := s.poll()
	return made
}

// poll is Poll that also reports whether the schedule is complete. The
// completion callback is its last touch of s: the callback may hand the
// schedule to its next user (Reset), so neither poll nor its callers
// read s afterwards.
func (s *Schedule) poll() (made, done bool) {
	if s.done.IsSet() {
		return false, true
	}
	if p := s.abort.Load(); p != nil && s.err == nil {
		s.err = *p
	}
	for s.cur < len(s.stages) {
		if s.err != nil {
			break
		}
		st := &s.stages[s.cur]
		if !s.issued {
			for _, op := range st.ops {
				op.start(s)
			}
			s.issued = true
			made = true
		}
		var fin bool
		if st.q != nil {
			fin = s.pollQuorum(st)
		} else {
			fin = s.pollStrict(st)
		}
		if s.err != nil {
			break
		}
		if !fin {
			return made, false
		}
		s.cur++
		s.issued = false
		made = true
	}
	if s.err != nil {
		if !s.swept {
			s.swept = true
			s.sweepIssued()
			made = true
		}
		if s.busy() {
			return made, false
		}
	}
	if !s.done.Set() {
		return made, true
	}
	if fn := s.onComplete; fn != nil {
		fn()
	}
	return true, true
}

// pollStrict advances a strict stage. It collects errors before
// judging completion: a stage with one failed op and one op that will
// never complete (its peer died) must abort rather than wait on the
// stragglers forever.
func (s *Schedule) pollStrict(st *stage) bool {
	done := true
	for _, op := range st.ops {
		if e := op.err(); e != nil && s.err == nil {
			s.err = e
		}
		if !op.isComplete(s) {
			done = false
		}
	}
	return done && s.err == nil
}

// pollQuorum advances a relaxed stage. The stage settles when every
// operation has resolved, or when the achievable quorum is met and the
// staleness bound has expired — whichever comes first. Settling gives
// up on the stragglers: their requests are adopted by the caller
// (QuorumStage.Abandon) or cancelled.
func (s *Schedule) pollQuorum(st *stage) bool {
	q := st.q
	resolved, contrib, possible := 0, 0, 0
	for _, op := range st.ops {
		c, isContrib := op.(contributor)
		if op.isComplete(s) {
			resolved++
			if e := op.err(); e != nil && q.firstErr == nil {
				q.firstErr = e
			}
			if isContrib && c.contributed() {
				contrib++
			}
		} else if isContrib {
			possible++
		}
	}
	all := resolved == len(st.ops)
	// The achievable quorum: contributors that already folded plus
	// those that might still. Peer failures resolve their receives
	// with errors, shrinking this below Need — the stage then settles
	// on whatever the survivors deliver instead of hanging.
	eff := q.Need
	if m := contrib + possible; m < eff {
		eff = m
	}
	if !all && (contrib < eff || q.Stale == nil || !q.Stale()) {
		return false
	}
	abandoned := 0
	for _, op := range st.ops {
		if op.isComplete(s) {
			continue
		}
		if _, isSend := op.(*sendOp); isSend {
			continue // a straggler still gets this rank's contribution
		}
		if _, isContrib := op.(contributor); isContrib {
			abandoned++
		}
		if r, ok := op.(*recvReduceOp); ok && q.Abandon != nil && q.Abandon(r.src, r.req) {
			continue
		}
		op.cancel()
	}
	if !q.settled && q.OnSettle != nil {
		q.OnSettle(contrib, abandoned, q.firstErr)
	}
	q.settled = true
	return true
}

// sweepIssued cancels the still-pending operations of the stage an
// abort interrupted. Without this, a staleness- or revocation-aborted
// schedule would strand posted receives in the matcher, where they
// poison later matches on the same (src, tag) — the ULFM failure path
// sweeps the matcher itself, but it is the only caller that does.
func (s *Schedule) sweepIssued() {
	if !s.issued || s.cur >= len(s.stages) {
		return
	}
	for _, op := range s.stages[s.cur].ops {
		if !op.isComplete(s) {
			op.cancel()
		}
	}
}

// writer is an operation that writes into the schedule's buffers: a
// receive.
type writer interface{ busy() bool }

// busy reports whether a receive of the stage an abort interrupted may
// still write the schedule's buffers: it matched before the sweep could
// cancel it. Each resolves on its own — its data lands, or its sender
// withdraws and answers with an abort — or by the transport's verdict.
// Sends are not waited for: one whose receiver aborted before posting
// its receive would never resolve, and the sweep withdrew each one its
// receiver had not answered.
func (s *Schedule) busy() bool {
	if !s.issued || s.cur >= len(s.stages) {
		return false
	}
	for _, op := range s.stages[s.cur].ops {
		if w, ok := op.(writer); ok && w.busy() {
			return true
		}
	}
	return false
}
