package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/datatype"
)

// TestContinueDeferredExecutionContext pins the execution-context
// contract: a completion produced outside the owning stream never runs
// the callback inline — it is enqueued and executes only when the
// owning stream is progressed.
func TestContinueDeferredExecutionContext(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		s := p.StreamCreate()
		cr := p.ContinueInitOn(s)
		greq := p.GrequestStart(nil, nil, nil, nil)
		var ran atomic.Bool
		cr.Continue(greq, func(Status) { ran.Store(true) })
		cr.Start()
		// Completing on the main goroutine only enqueues.
		greq.GrequestComplete()
		if ran.Load() {
			t.Fatal("callback ran inline in the completing context")
		}
		if cr.IsComplete() {
			t.Fatal("cont request complete before its stream was progressed")
		}
		p.StreamProgress(s)
		if !ran.Load() {
			t.Fatal("callback did not run when the owning stream progressed")
		}
		if !cr.IsComplete() {
			t.Fatal("cont request incomplete after its callback retired")
		}
		p.StreamFree(s)
	})
}

// TestContinueDeferFlag: ContDefer pushes even an already-complete
// operation's callback through the run-queue instead of running it on
// the registering caller.
func TestContinueDeferFlag(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		greq := p.GrequestStart(nil, nil, nil, nil)
		greq.GrequestComplete()
		cr := p.ContinueInit(ContDefer)
		ran := false
		cr.Continue(greq, func(Status) { ran = true })
		if ran {
			t.Fatal("ContDefer callback ran inline at registration")
		}
		cr.Start()
		cr.Wait()
		if !ran {
			t.Fatal("deferred callback never ran")
		}
	})
}

// TestContinueRaceElection hammers the completion CAS election: many
// operations completed from concurrent goroutines while the aggregate
// is being waited on. Run under -race (make race-cont); every callback
// must run exactly once and the aggregate must complete exactly once.
func TestContinueRaceElection(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		const n = 64
		cr := p.ContinueInit()
		var fired atomic.Int64
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = p.GrequestStart(nil, nil, nil, nil)
			cr.Continue(reqs[i], func(Status) { fired.Add(1) })
		}
		cr.Start()
		var wg sync.WaitGroup
		for _, r := range reqs {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.GrequestComplete()
			}()
		}
		st := cr.Wait()
		wg.Wait()
		if got := fired.Load(); got != n {
			t.Fatalf("fired %d callbacks, want %d", got, n)
		}
		if st.Err != nil {
			t.Fatalf("aggregate err = %v", st.Err)
		}
	})
}

// TestContinueRaceRegisterVsComplete races registration against the
// operation completing on another goroutine: whichever side wins, the
// callback runs exactly once (inline if registration lost the race,
// via the run-queue if it won).
func TestContinueRaceRegisterVsComplete(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		for i := 0; i < 200; i++ {
			cr := p.ContinueInit()
			greq := p.GrequestStart(nil, nil, nil, nil)
			var fired atomic.Int64
			done := make(chan struct{})
			go func() {
				greq.GrequestComplete()
				close(done)
			}()
			cr.Continue(greq, func(Status) { fired.Add(1) })
			cr.Start()
			<-done
			cr.Wait()
			if got := fired.Load(); got != 1 {
				t.Fatalf("iter %d: callback fired %d times", i, got)
			}
		}
	})
}

// TestContinueFailFast: the aggregate completes as soon as one
// operation fails, carrying that error, while the rest of the set is
// still in flight; the straggler's callback still runs afterwards.
func TestContinueFailFast(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		boom := errors.New("boom")
		failing := p.GrequestStart(
			func(any, *Status) error { return boom }, nil, nil, nil)
		straggler := p.GrequestStart(nil, nil, nil, nil)
		cr := p.ContinueInit(ContFailFast)
		var stragglerRan atomic.Bool
		cr.Continue(failing, func(Status) {})
		cr.Continue(straggler, func(Status) { stragglerRan.Store(true) })
		cr.Start()
		failing.GrequestComplete()
		st := cr.Wait()
		if !errors.Is(st.Err, boom) {
			t.Fatalf("aggregate err = %v, want boom", st.Err)
		}
		if stragglerRan.Load() {
			t.Fatal("straggler callback ran before its op completed")
		}
		if cr.NPending() != 1 {
			t.Fatalf("NPending = %d, want 1 after fail-fast", cr.NPending())
		}
		// The straggler's continuation still executes — no leak.
		straggler.GrequestComplete()
		for cr.NPending() != 0 {
			p.Progress()
		}
		if !stragglerRan.Load() {
			t.Fatal("straggler callback leaked after fail-fast completion")
		}
	})
}

// TestContinueFailFastReset pins the Reset drain contract under -race:
// a ContFailFast aggregate completes early with a straggler callback
// still outstanding, and Reset must then be safe — never panicking,
// never letting the orphaned wave's retire decrement the new wave's
// count, complete it early, or latch its error into it. The straggler
// of every wave completes from a separate goroutine racing the
// Wait/Reset cycle, which is exactly the nondeterminism that used to
// blow up.
func TestContinueFailFastReset(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		boom := errors.New("boom")
		cr := p.ContinueInit(ContFailFast)
		var wg sync.WaitGroup
		defer wg.Wait()
		for wave := 0; wave < 200; wave++ {
			failing := p.GrequestStart(
				func(any, *Status) error { return boom }, nil, nil, nil)
			straggler := p.GrequestStart(nil, nil, nil, nil)
			var cleanRan atomic.Bool
			clean := p.GrequestStart(nil, nil, nil, nil)
			cr.Continue(failing, func(Status) {})
			cr.Continue(straggler, func(Status) {})
			cr.Start()
			wg.Add(1)
			go func() { // races the fail-fast completion and the Reset
				defer wg.Done()
				straggler.GrequestComplete()
			}()
			failing.GrequestComplete()
			if st := cr.Wait(); !errors.Is(st.Err, boom) {
				t.Fatalf("wave %d: aggregate err = %v, want boom", wave, st.Err)
			}
			cr.Reset()

			// The next wave is all-clean: an orphaned straggler from the
			// previous wave must not complete it early (its callback may
			// still be in flight) and must not leak boom into its status.
			cr.Continue(clean, func(Status) { cleanRan.Store(true) })
			cr.Start()
			if cr.IsComplete() {
				t.Fatalf("wave %d: new wave complete before its op", wave)
			}
			clean.GrequestComplete()
			if st := cr.Wait(); st.Err != nil {
				t.Fatalf("wave %d: orphaned error leaked into new wave: %v", wave, st.Err)
			}
			if !cleanRan.Load() {
				t.Fatalf("wave %d: new wave completed without running its callback", wave)
			}
			cr.Reset()
		}
	})
}

// TestContinueAllSetStatuses: the set-continuation fires once with the
// per-operation statuses, clean and failed slots side by side.
func TestContinueAllSetStatuses(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		boom := errors.New("boom")
		reqs := []*Request{
			p.GrequestStart(nil, nil, nil, nil),
			p.GrequestStart(func(any, *Status) error { return boom }, nil, nil, nil),
			p.GrequestStart(nil, nil, nil, nil),
		}
		cr := p.ContinueInit()
		var calls atomic.Int64
		var got []Status
		cr.ContinueAll(reqs, func(sts []Status) {
			calls.Add(1)
			got = sts
		})
		cr.Start()
		for _, r := range reqs {
			r.GrequestComplete()
		}
		st := cr.Wait()
		if calls.Load() != 1 {
			t.Fatalf("set callback fired %d times, want 1", calls.Load())
		}
		if len(got) != 3 || got[0].Err != nil || !errors.Is(got[1].Err, boom) || got[2].Err != nil {
			t.Fatalf("set statuses = %+v", got)
		}
		if !errors.Is(st.Err, boom) {
			t.Fatalf("aggregate err = %v, want boom", st.Err)
		}
	})
}

// TestContinueAllEmptySet: an empty set is complete — the callback
// fires immediately.
func TestContinueAllEmptySet(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		cr := p.ContinueInit()
		fired := false
		cr.ContinueAll(nil, func(sts []Status) { fired = true })
		if !fired {
			t.Fatal("empty-set callback did not fire at registration")
		}
		cr.Start()
		if !cr.IsComplete() {
			t.Fatal("cont request with an empty set should complete at Start")
		}
	})
}

// TestContinueReset reuses one aggregate across waves, the
// persistent-request idiom.
func TestContinueReset(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		cr := p.ContinueInit()
		for wave := 0; wave < 3; wave++ {
			if wave > 0 {
				cr.Reset()
			}
			greq := p.GrequestStart(nil, nil, nil, nil)
			ran := false
			cr.Continue(greq, func(Status) { ran = true })
			cr.Start()
			greq.GrequestComplete()
			cr.Wait()
			if !ran {
				t.Fatalf("wave %d: callback never ran", wave)
			}
		}
	})
}

// TestContinueChain builds a recv→send style chain purely from
// callbacks: each link initiates the next operation and registers the
// next continuation from inside the progress context.
func TestContinueChain(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		cr := p.ContinueInit()
		const depth = 10
		hops := 0
		var link func()
		link = func() {
			greq := p.GrequestStart(nil, nil, nil, nil)
			cr.Continue(greq, func(Status) {
				hops++
				if hops < depth {
					link()
				}
			})
			greq.GrequestComplete()
		}
		link()
		cr.Start()
		// The aggregate may complete between links (pending dips to 0
		// while the chain is still growing), so drive until the chain
		// is done rather than waiting on the aggregate.
		for hops < depth {
			p.Progress()
		}
	})
}

// TestContinueOnCompleteAndDone covers the request-level bridges: the
// deferred OnComplete callback and the Done channel, both fed by a
// progress thread.
func TestContinueOnCompleteAndDone(t *testing.T) {
	run2(t, Config{}, func(p *Proc) {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.SendBytes(payload(512, 3), 1, 0)
			comm.SendBytes(payload(512, 4), 1, 1)
			return
		}
		stop := p.ProgressThread(nil)
		defer stop()

		var cbStatus atomic.Pointer[Status]
		r0 := comm.IrecvBytes(make([]byte, 512), 0, 0)
		r0.OnComplete(func(s Status) { cbStatus.Store(&s) })

		r1 := comm.IrecvBytes(make([]byte, 512), 0, 1)
		select {
		case st := <-r1.Done():
			if st.Bytes != 512 || st.Tag != 1 {
				t.Errorf("Done status %+v", st)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Done channel never delivered")
		}
		for cbStatus.Load() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		if st := cbStatus.Load(); st.Bytes != 512 || st.Tag != 0 {
			t.Errorf("OnComplete status %+v", st)
		}
		// Done on an already-complete request delivers immediately.
		select {
		case st := <-r0.Done():
			if st.Bytes != 512 {
				t.Errorf("already-complete Done status %+v", st)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("already-complete Done never delivered")
		}
	})
}

// TestContinueRevoked: continuations on a revoked communicator's
// pending operations fire with ErrCommRevoked instead of leaking.
func TestContinueRevoked(t *testing.T) {
	run2(t, Config{Procs: 2}, func(p *Proc) {
		dup := p.CommWorld().Dup()
		cr := p.ContinueInit()
		var gotErr atomic.Pointer[error]
		pending := dup.IrecvBytes(make([]byte, 8), 1-p.Rank(), 77)
		cr.Continue(pending, func(s Status) { gotErr.Store(&s.Err) })
		cr.Start()
		if p.Rank() == 0 {
			dup.Revoke()
		}
		st := cr.Wait()
		ep := gotErr.Load()
		if ep == nil || !errors.Is(*ep, ErrCommRevoked) {
			t.Errorf("rank %d: callback err = %v, want ErrCommRevoked", p.Rank(), ep)
		}
		if !errors.Is(st.Err, ErrCommRevoked) {
			t.Errorf("rank %d: aggregate err = %v, want ErrCommRevoked", p.Rank(), st.Err)
		}
	})
}

// TestContinueKillRankTCP is the kill-a-rank chaos case for
// continuations: a 3-rank TCP job where survivors hang continuations
// off operations that depend on the victim, the victim's transport is
// torn down abruptly, and every continuation must fire with a wrapped
// ErrProcFailed — no hang, no leak.
func TestContinueKillRankTCP(t *testing.T) {
	const n = 3
	const victim = 2
	// The low rendezvous threshold keeps the 32 KiB send in flight
	// (waiting on a CTS the parked victim never sends) until the kill.
	worlds, nets := tcpWorldsFail(t, n, Config{RndvThreshold: 4 << 10}, chaosTCPConfig())

	var posted sync.WaitGroup
	posted.Add(n - 1)
	killed := make(chan struct{})
	park := make(chan struct{})

	fail := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == victim {
			go worlds[victim].Run(func(p *Proc) { <-park })
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					fail[r] = fmt.Errorf("rank %d panicked: %v", r, e)
				}
			}()
			worlds[r].Run(func(p *Proc) {
				comm := p.CommWorld()
				cr := p.ContinueInit()
				// The rendezvous send dials the victim, so the lost
				// connection after the kill is the PeerDown verdict
				// that sweeps all three operations.
				reqs := []*Request{
					comm.IrecvBytes(make([]byte, 16), victim, 7),
					comm.IrecvBytes(make([]byte, 16), victim, 8),
					comm.Isend(make([]byte, 32<<10), 32<<10, datatype.Byte, victim, 9),
				}
				var sts []Status
				var setDone atomic.Bool
				cr.ContinueAll(reqs, func(s []Status) {
					sts = s
					setDone.Store(true)
				})
				cr.Start()
				// Drive progress long enough for the RTS to dial the
				// victim while it is still alive: the kill must then
				// surface as a connection reset (PeerDown verdict →
				// ErrProcFailed sweep), not as a failed first dial.
				for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
					p.Progress()
				}
				posted.Done()
				<-killed

				deadline := time.Now().Add(10 * time.Second)
				for !cr.IsComplete() {
					if time.Now().After(deadline) {
						fail[r] = fmt.Errorf("rank %d: continuations never fired after kill", r)
						return
					}
					p.Progress()
				}
				if !setDone.Load() {
					fail[r] = fmt.Errorf("rank %d: set callback did not run", r)
					return
				}
				for i, s := range sts {
					if !errors.Is(s.Err, ErrProcFailed) {
						fail[r] = fmt.Errorf("rank %d: req %d err = %v, want ErrProcFailed", r, i, s.Err)
						return
					}
				}
				if st := cr.Request().Status(); !errors.Is(st.Err, ErrProcFailed) {
					fail[r] = fmt.Errorf("rank %d: aggregate err = %v, want ErrProcFailed", r, st.Err)
				}
			})
		}(r)
	}

	posted.Wait()
	nets[victim].Kill()
	close(killed)
	wg.Wait()
	for r, err := range fail {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestContinueSteadyStateAllocs gates what a continuation costs on
// warm ContinueRequests: register, complete the operations, run the
// callback, Reset. A ContinueAll is one record for the whole set, so
// its allocations do not grow with the set; a Continue is one record
// plus its run-queue entry.
func TestContinueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in non-race passes")
	}
	const n, runs, allBudget, oneBudget = 64, 100, 4, 2
	var all, one float64
	run2(t, Config{Procs: 1}, func(p *Proc) {
		ops := make([]*Request, n)
		for i := range ops {
			ops[i] = p.GrequestStart(nil, nil, nil, nil)
			ops[i].GrequestComplete()
		}
		cr := p.ContinueInit()
		fired := 0
		cycle := func(register func()) {
			for _, r := range ops {
				r.rearm()
			}
			register()
			cr.Start()
			for _, r := range ops {
				r.complete(Status{})
			}
			for !cr.IsComplete() {
				p.Progress()
			}
			cr.Reset()
		}
		setCB := func([]Status) { fired++ }
		opCB := func(Status) { fired++ }
		all = testing.AllocsPerRun(runs, func() {
			cycle(func() { cr.ContinueAll(ops, setCB) })
		})
		one = testing.AllocsPerRun(runs, func() {
			cycle(func() { cr.Continue(ops[0], opCB) })
		})
		if fired != 2*(runs+1) {
			panic(fmt.Sprintf("fired %d callbacks, want %d", fired, 2*(runs+1)))
		}
	})
	t.Logf("ContinueAll over %d: %.1f allocations per call; Continue: %.1f", n, all, one)
	if all > allBudget {
		t.Errorf("ContinueAll over %d pending requests allocates %.1f objects per call, want at most %d", n, all, allBudget)
	}
	if one > oneBudget {
		t.Errorf("Continue on one pending request allocates %.1f objects per call, want at most %d", one, oneBudget)
	}
}

// TestContinueExecutionContextEveryPath asserts the execution-context
// rule on every registration path: with the operations completed on
// another goroutine, no callback runs before its stream is progressed,
// and each one runs holding that stream's lock (a nested TryProgress
// is refused).
func TestContinueExecutionContextEveryPath(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		s := p.StreamCreate()
		cr := p.ContinueInitOn(s)
		reqs := make([]*Request, 6)
		for i := range reqs {
			reqs[i] = p.GrequestStart(nil, nil, nil, nil)
		}
		var fired atomic.Int32
		check := func(path string) {
			if _, ok := s.TryProgress(); ok {
				t.Errorf("%s: callback ran without its stream's lock", path)
			}
			fired.Add(1)
		}
		cr.Continue(reqs[0], func(Status) { check("Continue") })
		cr.ContinueAll(reqs[1:3], func([]Status) { check("ContinueAll") })
		cr.ContinueEach(reqs[3:5], func(int, Status) { check("ContinueEach") })
		reqs[5].OnCompleteStream(s, func(Status) { check("OnCompleteStream") })
		cr.Start()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range reqs {
				r.GrequestComplete()
			}
		}()
		wg.Wait()
		if got := fired.Load(); got != 0 {
			t.Fatalf("%d callbacks ran before their stream was progressed", got)
		}
		const want = 5 // Continue, ContinueAll, two ContinueEach, OnCompleteStream
		for fired.Load() < want {
			p.StreamProgress(s)
		}
		p.StreamProgress(s)
		if got := fired.Load(); got != want {
			t.Fatalf("%d callbacks ran, want %d", got, want)
		}
		if !cr.IsComplete() {
			t.Fatal("aggregate incomplete after every callback ran")
		}
		p.StreamFree(s)
	})
}

// TestContinueAllFailFast: under ContFailFast a ContinueAll's first
// failed operation completes the aggregate with its error while the
// rest of the set is pending; the set callback then fires exactly
// once, after the last operation completes.
func TestContinueAllFailFast(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		boom := errors.New("boom")
		failing := p.GrequestStart(func(any, *Status) error { return boom }, nil, nil, nil)
		first := p.GrequestStart(nil, nil, nil, nil)
		last := p.GrequestStart(nil, nil, nil, nil)
		cr := p.ContinueInit(ContFailFast)
		var calls atomic.Int32
		var got []Status
		cr.ContinueAll([]*Request{first, failing, last}, func(sts []Status) {
			calls.Add(1)
			got = sts
		})
		cr.Start()
		failing.GrequestComplete()
		if st := cr.Wait(); !errors.Is(st.Err, boom) {
			t.Fatalf("aggregate err = %v, want boom", st.Err)
		}
		first.GrequestComplete()
		for i := 0; i < 4; i++ {
			p.Progress()
		}
		if calls.Load() != 0 {
			t.Fatal("set callback fired before the whole set completed")
		}
		if cr.NPending() == 0 {
			t.Fatal("NPending = 0 with the set callback outstanding")
		}
		last.GrequestComplete()
		for cr.NPending() != 0 {
			p.Progress()
		}
		p.Progress()
		if n := calls.Load(); n != 1 {
			t.Fatalf("set callback fired %d times, want 1", n)
		}
		if len(got) != 3 || got[0].Err != nil || !errors.Is(got[1].Err, boom) || got[2].Err != nil {
			t.Fatalf("set statuses = %+v", got)
		}
	})
}

// TestContinueSharedRequest hangs four registrations on one request —
// two ContinueAll sets, an OnComplete and a Done — and checks that each
// fires exactly once, in registration order, with the request's status
// in its slot.
func TestContinueSharedRequest(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		shared := p.GrequestStart(func(_ any, s *Status) error { s.Tag = 7; return nil }, nil, nil, nil)
		a := p.GrequestStart(nil, nil, nil, nil)
		b := p.GrequestStart(nil, nil, nil, nil)
		cr := p.ContinueInit()
		var order []string
		cr.ContinueAll([]*Request{shared, a}, func(sts []Status) {
			if sts[0].Tag != 7 {
				t.Errorf("set A slot 0 = %+v", sts[0])
			}
			order = append(order, "A")
		})
		shared.OnComplete(func(st Status) {
			if st.Tag != 7 {
				t.Errorf("OnComplete status = %+v", st)
			}
			order = append(order, "OnComplete")
		})
		cr.ContinueAll([]*Request{b, shared}, func(sts []Status) {
			if sts[1].Tag != 7 {
				t.Errorf("set B slot 1 = %+v", sts[1])
			}
			order = append(order, "B")
		})
		done := shared.Done()
		cr.Start()

		a.GrequestComplete()
		b.GrequestComplete()
		p.Progress()
		if len(order) != 0 || len(done) != 0 {
			t.Fatalf("fired %v (Done %d) before the shared request completed", order, len(done))
		}
		shared.GrequestComplete()
		select {
		case st := <-done:
			if st.Tag != 7 {
				t.Errorf("Done status = %+v", st)
			}
		default:
			t.Fatal("Done did not deliver at completion")
		}
		cr.Wait()
		for i := 0; i < 4; i++ {
			p.Progress()
		}
		if got := fmt.Sprint(order); got != "[A OnComplete B]" {
			t.Fatalf("callbacks ran as %s, want [A OnComplete B]", got)
		}
		if len(done) != 0 {
			t.Fatal("Done delivered twice")
		}
	})
}
