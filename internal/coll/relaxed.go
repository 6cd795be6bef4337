package coll

import "math/bits"

// The relaxed ("solo/partial") allreduce: the collective behind
// eager-SGD-style asynchronous data parallelism (Li et al.'s fflib2
// progresser). Every rank broadcasts its contribution to every peer
// and folds whichever peer contributions arrive, settling once a
// quorum is in and a staleness bound expires — stragglers are
// abandoned rather than waited for, and the result carries a bitmap
// of exactly whose data made it in. One quorum stage, no stage
// barriers: contributions fold the moment they land.
//
// The flat all-to-all exchange is deliberate. A tree or ring reaches
// the same sums with fewer messages, but every aggregation topology
// makes some rank's contribution transit another rank — one straggler
// then delays or censors data it never owned. With direct exchange a
// straggler only ever delays itself, which is the entire point of the
// relaxation.

// Bitmap is a fixed-size bit set over group ranks.
type Bitmap []uint64

// NewBitmap returns a bitmap able to hold n ranks.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set marks rank i.
func (b Bitmap) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Has reports whether rank i is marked.
func (b Bitmap) Has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// Count returns the number of marked ranks.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// RelaxedResult reports what a relaxed allreduce actually aggregated.
// Its fields are final when the schedule completes.
type RelaxedResult struct {
	// Contributed marks the ranks whose data is folded into the result,
	// always including the caller.
	Contributed Bitmap

	// Contributions is Contributed.Count(), maintained incrementally.
	Contributions int

	// Abandoned is the number of straggler peers given up on when the
	// stage settled (their late payloads are drained by the caller's
	// Abandon hook or their receives cancelled).
	Abandoned int

	// Err is the first per-peer delivery error observed (a dead peer's
	// ErrProcFailed, a revoked comm), nil when every resolved exchange
	// was clean. A relaxed round with Err set still completed: the
	// result holds the survivors' reduction and Contributed says whose.
	Err error
}

// RelaxedConfig tunes RelaxedAllreduce.
type RelaxedConfig struct {
	// Quorum is the minimum number of contributions — including the
	// caller's own — the round wants before settling. Clamped to
	// [1, Size]; 0 means full participation (but peer failures still
	// shrink it, see QuorumStage.Need).
	Quorum int

	// Stale is the staleness bound consulted once the quorum is met
	// while stragglers remain (see QuorumStage.Stale). Nil waits for
	// every peer to resolve.
	Stale func() bool

	// Gate, when set, holds the round's operations until it reports
	// true — the round-lag window (see Gate).
	Gate func() bool

	// Adopt, when set, takes over a straggler's still-pending receive
	// at settle time (see QuorumStage.Abandon).
	Adopt func(src int, req Completable) bool

	// OnSettle, when set, runs after the result fields are final for
	// the settling round (inside the settling progress poll).
	OnSettle func()
}

// RelaxedAllreduce builds the relaxed allreduce schedule: the caller's
// contribution in inout is sent to every peer, and arriving peer
// contributions are folded into inout via reduce (which must be
// commutative) as they land. res is populated incrementally and final
// when the schedule completes. Every round MUST use a fresh tag shared
// by all ranks for that round — abandoned rounds leave late traffic in
// flight, and only per-round tags keep it from cross-matching.
func RelaxedAllreduce(tr Transport, inout []byte, reduce func(inout, in []byte), tag int, cfg RelaxedConfig, res *RelaxedResult) *Schedule {
	s := newSchedule(tr, inout)
	p, me := tr.Size(), tr.Rank()
	n := len(inout)
	res.Contributed = NewBitmap(p)
	res.Contributed.Set(me)
	res.Contributions = 1
	if p == 1 {
		s.settle()
		if cfg.OnSettle != nil {
			s.AddStage(Local(cfg.OnSettle))
		}
		return s
	}
	quorum := cfg.Quorum
	if quorum <= 0 || quorum > p {
		quorum = p
	}
	if cfg.Gate != nil {
		s.AddStage(Gate(cfg.Gate))
	}
	ops := make([]Op, 0, 2*(p-1))
	// The one algorithm that folds into a buffer while sends of it may
	// still be reading it: the quorum stage issues the sends and folds
	// the receives together, and a send hands its buffer to the
	// transport (a rendezvous is read long after issue). So every peer
	// gets a snapshot of the caller's own contribution, taken here —
	// never the result, which would reach it partly folded.
	own := s.scratch(n)
	copy(s.at(own), inout)
	for d := 0; d < p; d++ {
		if d != me {
			ops = append(ops, send(own, d, tag))
		}
	}
	all := s.out(0, n)
	for d := 0; d < p; d++ {
		if d == me {
			continue
		}
		src := d
		ops = append(ops, recvReduce(s.scratch(n), src, tag, func(in []byte) {
			reduce(s.at(all), in)
			res.Contributed.Set(src)
			res.Contributions++
		}))
	}
	s.AddQuorum(QuorumStage{
		Need:    quorum - 1, // own contribution is already in inout
		Stale:   cfg.Stale,
		Abandon: cfg.Adopt,
		OnSettle: func(_, abandoned int, err error) {
			res.Abandoned = abandoned
			res.Err = err
			if cfg.OnSettle != nil {
				cfg.OnSettle()
			}
		},
	}, ops...)
	return s
}
