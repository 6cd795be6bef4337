// Package sched implements the MPIX Schedule proposal (Schafer et al.,
// paper §5.3): a user-constructed schedule of rounds of MPI operations
// committed into a single waitable request.
//
// The paper's argument is that such proposals need not live inside an
// MPI implementation once interoperable progress exists. Here the claim
// holds in its strong form: the library's own collective schedule
// engine (coll.Schedule) uses nothing but MPIX Async things and
// side-effect-free completion queries, so MPIX Schedule is a builder
// over that engine — rounds are its stages, operations its Issue ops —
// plus a generalized request for the handle, with no access to MPI
// internals.
package sched

import (
	"gompix/internal/coll"
	"gompix/internal/core"
	"gompix/internal/mpi"
)

// Op is one schedule operation: Start issues it and returns a request,
// or nil for a purely local step that finishes immediately.
type Op func() *mpi.Request

// Local wraps a local computation step as an Op.
func Local(fn func()) Op {
	return func() *mpi.Request {
		fn()
		return nil
	}
}

// Schedule is a sequence of rounds; all operations in a round are
// issued together and the next round starts when every one completes
// (MPIX_Schedule_create / _add_operation / _create_round).
type Schedule struct {
	proc      *mpi.Proc
	stream    *core.Stream
	rounds    [][]Op
	cur       []Op // operations accumulating into the next round
	committed bool
}

// New creates an empty schedule whose progression will be driven by
// the given stream (nil selects the NULL stream).
func New(p *mpi.Proc, stream *core.Stream) *Schedule {
	if stream == nil {
		stream = p.NullStream()
	}
	return &Schedule{proc: p, stream: stream}
}

// AddOperation appends an operation to the current round
// (MPIX_Schedule_add_operation).
func (s *Schedule) AddOperation(op Op) {
	if s.committed {
		panic("sched: AddOperation after Commit")
	}
	s.cur = append(s.cur, op)
}

// CreateRound closes the current round: subsequent operations start
// only after everything added so far completes
// (MPIX_Schedule_create_round).
func (s *Schedule) CreateRound() {
	if s.committed {
		panic("sched: CreateRound after Commit")
	}
	if len(s.cur) == 0 {
		return
	}
	s.rounds = append(s.rounds, s.cur)
	s.cur = nil
}

// Commit finalizes the schedule and registers its execution with MPI
// progress (MPIX_Schedule_commit). The returned request completes when
// the last round does; wait on it with Wait/Test or query it with
// IsComplete. Nothing is issued here: the first round starts in the
// stream's next progress pass. An operation that completes with an
// error ends the schedule — later rounds are never issued, the failed
// round's pending receives are withdrawn — and the request carries it.
func (s *Schedule) Commit() *mpi.Request {
	if s.committed {
		panic("sched: double Commit")
	}
	s.CreateRound()
	s.committed = true
	cs := coll.NewSchedule(nil) // no Transport: every operation is an Issue
	for _, round := range s.rounds {
		ops := make([]coll.Op, len(round))
		for i, op := range round {
			ops[i] = coll.Issue(func() coll.Completable {
				if req := op(); req != nil {
					return req
				}
				return nil // not a nil *mpi.Request in an interface
			})
		}
		cs.AddStage(ops...)
	}
	greq := s.proc.GrequestStart(func(any, *mpi.Status) error { return cs.Err() }, nil, nil, nil)
	cs.OnComplete(greq.GrequestComplete)
	s.proc.AsyncStart(cs.AsyncPoll, nil, s.stream)
	return greq
}
