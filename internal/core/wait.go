package core

import (
	"context"
	"errors"
	"runtime"
	"time"
)

// The one wait ladder. Every blocking call in the tree — Request.Wait
// and its bounded variants, WaitAny/WaitSome, Probe, the finalize
// barrier, Quiesce, ProgressUntil — is Await with a different
// condition. The ladder has two rungs, and which one runs follows from
// what the waiter can observe:
//
//   - yield: an empty (or contended) pass means nothing on this stream
//     can complete until someone else runs — a peer rank's goroutine,
//     a transport watcher, another thread holding the stream. So every
//     such pass is followed by runtime.Gosched(): when a peer shares
//     the core it runs now, when nobody is runnable the call costs
//     about as much as one more empty pass.
//   - park: parkAfter consecutive empty passes mean the completion is
//     not one yield away. The waiter raises the stream's parked count,
//     makes one more pass (the re-check), lets the transport announce
//     it to out-of-process producers (Netmod.Parking) and sleeps on the
//     stream's wake channel. Every arrival on the stream — Work.Arrived
//     from any transport leg, Defer, AsyncStart — pokes that channel;
//     parkCap only bounds the sleep for conditions no arrival
//     announces (timers inside async things, another thread's
//     progress, a context).
//
// parkAfter is the ladder's one budget. A waiter with a core of its own
// (a rank per process, a core per rank) loses nothing by polling and
// pays a sleep and a wake-up, tens of microseconds, for parking too
// soon; one that shares its core loses the core to nobody by yielding.
// 256 yielded passes last about as long as one park and wake cost,
// which keeps the waiter within a factor of two of the better choice
// whichever situation it is in: the two-process message rates
// (progressbench -workload msgrate) halve at 64 and are level from 256.
const parkAfter = 256

// parkCap is a variable only so that the no-lost-wake-up tests can
// raise it until a park that ends on its timer is a failure by itself.
var parkCap = 50 * time.Microsecond

// Await blocks until cond reports true, driving progress meanwhile. It
// returns nil once cond holds, or the first non-nil error from cancel
// (checked before every pass; nil means the wait is unbounded) with the
// condition still false.
//
// pass is one non-blocking progress round over whatever the condition
// depends on and reports whether anything moved; nil means TryProgress
// on s — a contended stream is being progressed by its other waiter,
// so this caller only waits. s is the stream the waiter parks on: a
// pass that spans more streams is woken by s's arrivals and sees the
// others' within parkCap.
func (s *Stream) Await(cond func() bool, cancel func() error, pass func() bool) error {
	em := s.eng.met
	on := em != nil && em.reg.On() // single atomic load when wired
	if on {
		em.waits.Inc()
	}
	misses := 0
	for !cond() {
		if cancel != nil {
			if err := cancel(); err != nil {
				return err
			}
		}
		parking := misses >= parkAfter
		if parking {
			// Raise the count before the pass: the pass is the re-check
			// of the raise → re-check → sleep handshake (see Work.Arrived).
			if s.parked.Add(1) == 1 {
				select {
				case <-s.wake: // a poke left over from an earlier park
				default:
				}
			}
		}
		var made bool
		if pass != nil {
			made = pass()
		} else {
			made, _ = s.TryProgress()
		}
		switch {
		case made:
			misses = 0
		case !parking:
			misses++
			if on {
				em.yields.Inc()
			}
			runtime.Gosched()
		case !cond():
			s.park(em, on)
		}
		if parking {
			s.parked.Add(-1)
		}
	}
	return nil
}

// park is the sleep of the park rung. Caller raised s.parked before
// its last (empty) pass.
func (s *Stream) park(em *engineMetrics, on bool) {
	var t0 time.Time
	if on {
		em.parks.Inc()
		t0 = time.Now()
	}
	early := true
	if s.net == nil || s.net.Parking() {
		early = s.sleep()
	}
	if on {
		em.parkNS.Observe(int64(time.Since(t0)))
		if early {
			em.earlyWakes.Inc()
		}
	}
}

// sleep blocks until a poke or parkCap and reports which: true means
// an arrival cut the sleep short.
func (s *Stream) sleep() (early bool) {
	if !s.sleepMu.TryLock() {
		// A second waiter on a shared stream: the first owns the wake
		// channel and will make the progress for both.
		time.Sleep(parkCap)
		return false
	}
	defer s.sleepMu.Unlock()
	if s.parkTimer == nil {
		s.parkTimer = time.NewTimer(parkCap)
	} else {
		s.parkTimer.Reset(parkCap)
	}
	select {
	case <-s.wake:
		if !s.parkTimer.Stop() {
			<-s.parkTimer.C
		}
		return true
	case <-s.parkTimer.C:
		return false
	}
}

// arrived is called after new work has been made visible on the
// stream; it wakes a parked waiter. One atomic load when nobody is
// parked.
func (s *Stream) arrived() {
	if s.parked.Load() == 0 {
		return
	}
	select {
	case s.wake <- struct{}{}:
		if em := s.eng.met; em != nil && em.reg.On() {
			em.pokes.Inc()
		}
	default: // a poke is already pending
	}
}

// ProgressUntil drives progress on the stream until cond returns true
// (the paper's "while (counter > 0) MPIX_Stream_progress(...)").
func (s *Stream) ProgressUntil(cond func() bool) { s.Await(cond, nil, nil) }

// ProgressUntilCtx is ProgressUntil bounded by a context: it returns
// nil once cond holds, or ctx.Err() once the context is cancelled,
// whichever happens first.
//
// Kept for callers that own their wait loop; new code reacting to
// individual completions is usually better served by the continuation
// model (Stream.Defer and the request-level OnComplete/Done bridges in
// internal/mpi), which never parks a goroutine per operation.
func (s *Stream) ProgressUntilCtx(ctx context.Context, cond func() bool) error {
	return s.Await(cond, ctx.Err, nil)
}

var errSpinBound = errors.New("core: quiesce bound exhausted")

// Quiesce drives progress on all streams until nothing is pending.
// MPI_Finalize uses it so that launched async tasks always complete
// (paper Listing 1.2). maxSpins <= 0 means no bound; otherwise Quiesce
// returns false if that many rounds pass first.
func (e *Engine) Quiesce(maxSpins int) bool {
	var cancel func() error
	if maxSpins > 0 {
		spins := 0
		cancel = func() error {
			if spins >= maxSpins {
				return errSpinBound
			}
			spins++
			return nil
		}
	}
	idle := func() bool { return e.Pending() == 0 }
	return e.def.Await(idle, cancel, e.ProgressAll) == nil
}
