package mpi

import (
	"sync"
	"time"

	"gompix/internal/coll"
	"gompix/internal/datatype"
	"gompix/internal/reduceop"
)

// IallreduceRelaxed: the eager-SGD collective (fflib2's solo/partial
// allreduce). Unlike Iallreduce it does not wait for every rank — the
// round completes once Quorum contributions are in and the staleness
// bound expires, abandoning stragglers. Because abandoned rounds leave
// traffic in flight, rounds are numbered per communicator and each
// round's exchange runs on its own tag; a straggler's late send is
// adopted into the round's reorder window where it drains harmlessly
// instead of cross-matching a later round.

// relaxTagBase offsets relaxed-round tags away from the strict
// collective sequence (which counts up from 1) while staying below
// ftTagBase (1<<30), so a revocation's matcher sweep — which exempts
// only tags >= ftTagBase on the collective context — still clears
// relaxed traffic.
const relaxTagBase = 1 << 28

// defaultRelaxedLag bounds how far a rank may run ahead of its
// slowest unresolved round (see RelaxedOptions.MaxLag).
const defaultRelaxedLag = 16

// RelaxedOptions tunes one relaxed allreduce round.
type RelaxedOptions struct {
	// Quorum is the minimum number of contributions (including the
	// caller's own) before the round may settle; clamped to [1, Size].
	// 0 means full participation, though dead peers still shrink it.
	Quorum int

	// Staleness is the grace period granted to stragglers once the
	// quorum is met, measured from the first progress poll that
	// observes the quorum. Zero settles immediately at quorum; negative
	// waits for every peer (no bound).
	Staleness time.Duration

	// MaxLag bounds how many rounds the caller may run ahead of its
	// oldest unresolved round: a new round does not issue until the
	// resolution frontier is within MaxLag rounds. This is what keeps
	// a straggler's backlog bounded — it can be at most MaxLag rounds
	// behind before the fast ranks stall for it. 0 means the default
	// (16); negative disables the gate.
	MaxLag int
}

// RelaxedRequest is the handle for an in-flight relaxed allreduce. It
// is a *Request (Wait/Test/OnComplete/continuations all work) plus the
// round's RelaxedResult, valid once the request completes.
type RelaxedRequest struct {
	*Request
	round uint64
	res   coll.RelaxedResult
}

// Round returns the round number the communicator assigned this call.
func (r *RelaxedRequest) Round() uint64 { return r.round }

// Result returns the round's outcome: who contributed, how many
// stragglers were abandoned, and the first peer failure observed.
// Valid once the request completes.
func (r *RelaxedRequest) Result() *coll.RelaxedResult { return &r.res }

// relaxedState is a communicator's relaxed-round bookkeeping: the
// round counter, the resolution frontier feeding the lag gate, and the
// reorder window of rounds that settled with straggler receives still
// posted (adopted — their late payloads drain into scratch buffers
// keyed by the round's own tag, so they can never match another
// round).
type relaxedState struct {
	mu       sync.Mutex
	seq      uint64                   // rounds opened
	frontier uint64                   // rounds fully resolved (settled + drained)
	rounds   map[uint64]*relaxedRound // open rounds by number
}

type relaxedRound struct {
	settled bool // the round's schedule completed
	out     int  // adopted straggler receives still pending
}

func (w *relaxedState) open() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.seq
	w.seq++
	w.rounds[r] = &relaxedRound{}
	return r
}

// ready reports whether round may issue under the lag bound: no
// unresolved round older than round-lag remains.
func (w *relaxedState) ready(round uint64, lag int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return round < w.frontier+uint64(lag)
}

// adopt records one straggler receive handed to round's window.
func (w *relaxedState) adopt(round uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r := w.rounds[round]; r != nil {
		r.out++
	}
}

// resolve retires one adopted receive (its late payload arrived, or it
// completed with its peer's failure verdict).
func (w *relaxedState) resolve(round uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r := w.rounds[round]; r != nil {
		r.out--
		if r.settled && r.out <= 0 {
			delete(w.rounds, round)
			w.advanceLocked()
		}
	}
}

// settle marks round's schedule complete; the round stays in the
// window until its adopted receives drain.
func (w *relaxedState) settle(round uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.rounds[round]
	if r == nil || r.settled {
		return
	}
	r.settled = true
	if r.out <= 0 {
		delete(w.rounds, round)
		w.advanceLocked()
	}
}

// advanceLocked slides the frontier past fully resolved rounds.
func (w *relaxedState) advanceLocked() {
	for w.frontier < w.seq {
		if _, open := w.rounds[w.frontier]; open {
			return
		}
		w.frontier++
	}
}

func (c *Comm) relaxedWin() *relaxedState {
	c.relaxedOnce.Do(func() {
		c.relaxed = &relaxedState{rounds: make(map[uint64]*relaxedRound)}
	})
	return c.relaxed
}

// IallreduceRelaxed starts a relaxed (solo/partial) allreduce of count
// elements of dt under op: sendBuf is every rank's contribution,
// recvBuf receives the partial reduction. A nil sendBuf means
// MPI_IN_PLACE (recvBuf holds the contribution). The returned
// request's Result reports which ranks' data made it in.
//
// Rounds are matched per communicator by call order (like every MPI
// collective), but unlike strict collectives a relaxed round completes
// without some peers — including dead ones: a peer failure does not
// condemn the round, it just never contributes and surfaces as
// Result().Err = ErrProcFailed. Only a revocation aborts the request
// itself.
func (c *Comm) IallreduceRelaxed(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op, opt RelaxedOptions) *RelaxedRequest {
	src := sendBuf
	if src == nil {
		src = recvBuf
	}
	wire := packFor(src, count, dt)
	lag := opt.MaxLag
	if lag == 0 {
		lag = defaultRelaxedLag
	}
	win := c.relaxedWin()
	round := win.open()
	rr := &RelaxedRequest{round: round}
	tag := relaxTagBase + int(round%(1<<20))
	cfg := coll.RelaxedConfig{
		Quorum: opt.Quorum,
		Adopt: func(_ int, req coll.Completable) bool {
			mr, ok := req.(*Request)
			if !ok || mr.IsComplete() {
				return false // nothing pending to drain; cancel instead
			}
			win.adopt(round)
			mr.OnComplete(func(Status) { win.resolve(round) })
			return true
		},
		OnSettle: func() { win.settle(round) },
	}
	if lag > 0 {
		cfg.Gate = func() bool { return win.ready(round, lag) }
	}
	if opt.Staleness >= 0 {
		armed := -1.0
		stale := opt.Staleness.Seconds()
		cfg.Stale = func() bool {
			// Consulted only once the quorum is met; the grace period
			// runs from that first consultation.
			now := c.proc.Wtime()
			if armed < 0 {
				armed = now
			}
			return now >= armed+stale
		}
	}
	s := coll.RelaxedAllreduce(c.transport(), wire, reducer(op, dt, count), tag, cfg, &rr.res)
	rr.Request = c.submitRelaxed(s, round, func() {
		datatype.Unpack(recvBuf, wire, count, dt)
	})
	return rr
}

// submitRelaxed is submitSched's relaxed twin. Two deliberate
// differences: there is no FailedRanks rejection (a relaxed round runs
// on a comm with dead members — that is its reason to exist), and the
// schedule registers in the relaxed tracking set, which a revocation
// aborts but a peer failure leaves alone.
func (c *Comm) submitRelaxed(s *coll.Schedule, round uint64, onDone func()) *Request {
	win := c.relaxedWin()
	if c.fstate.revoked.Load() {
		win.settle(round)
		return c.failedReq(kindSched, ErrCommRevoked)
	}
	req := &Request{kind: kindSched, vci: c.local, proc: c.proc}
	s.OnComplete(func() {
		c.fstate.removeRelaxedSched(s)
		if err := s.Err(); err != nil {
			// Aborted (revoked) before settling: release the round so
			// the window's frontier can advance past it.
			win.settle(round)
			req.complete(Status{Err: err})
			return
		}
		if onDone != nil {
			onDone()
		}
		req.complete(Status{})
	})
	c.fstate.addRelaxedSched(s)
	s.Start(c.local.stream)
	return req
}
