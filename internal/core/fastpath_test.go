package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFreeStreamAsyncStartRace is the regression test for the
// FreeStream check-then-remove race: a concurrent arrival — an
// AsyncStart, a Defer or a spawn from another stream's pass — must
// either land before the pending check (making FreeStream panic) or
// observe the dead mark (and panic itself). The broken interleaving —
// both calls succeeding, stranding a task or a callback on a freed
// stream — must never happen.
func TestFreeStreamAsyncStartRace(t *testing.T) {
	arrivals := []struct {
		name   string
		arrive func(*Stream)
	}{
		{"AsyncStart", func(s *Stream) { s.AsyncStart(func(Thing) PollOutcome { return Done }, nil) }},
		{"Defer", func(s *Stream) { s.Defer(func() {}) }},
		{"cross-stream Spawn", func(s *Stream) {
			from := s.eng.NewStream()
			from.AsyncStart(func(th Thing) PollOutcome {
				th.Spawn(func(Thing) PollOutcome { return Done }, nil, s)
				return Done
			}, nil)
			from.Progress()
		}},
	}
	for i := 0; i < 600; i++ {
		in := arrivals[i%len(arrivals)]
		e := newTestEngine()
		s := e.NewStream()
		var startOK, freeOK atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer func() { recover() }()
			in.arrive(s)
			startOK.Store(true)
		}()
		go func() {
			defer wg.Done()
			defer func() { recover() }()
			e.FreeStream(s)
			freeOK.Store(true)
		}()
		wg.Wait()
		if startOK.Load() && freeOK.Load() {
			t.Fatalf("%s and FreeStream both succeeded: stranded on a freed stream", in.name)
		}
		if !startOK.Load() && !freeOK.Load() {
			t.Fatalf("both %s and FreeStream panicked", in.name)
		}
		if startOK.Load() {
			// FreeStream lost: drain the arrival and the free must succeed.
			s.ProgressUntil(func() bool { return s.Pending() == 0 })
			e.FreeStream(s)
		}
	}
}

// TestStreamsSnapshotInvalidation checks that the cached Streams()
// snapshot tracks NewStream and FreeStream.
func TestStreamsSnapshotInvalidation(t *testing.T) {
	e := newTestEngine()
	base := len(e.Streams())
	s := e.NewStream()
	if got := len(e.Streams()); got != base+1 {
		t.Fatalf("after NewStream: %d streams, want %d", got, base+1)
	}
	e.FreeStream(s)
	for _, live := range e.Streams() {
		if live == s {
			t.Fatal("freed stream still in snapshot")
		}
	}
	if got := len(e.Streams()); got != base {
		t.Fatalf("after FreeStream: %d streams, want %d", got, base)
	}
}

// TestCountedHookIdleSkip checks the idle-class skip: a class whose
// only hook is counted is not polled while its work counter is zero
// (outside the periodic full pass), is polled while positive, and is
// still reached by the safety-net full pass.
func TestCountedHookIdleSkip(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	h := &fakeHook{}
	w := s.RegisterHookCounted(ClassNetmod, h)

	for i := 0; i < 16; i++ {
		s.Progress()
	}
	if h.polls != 0 {
		t.Fatalf("idle counted hook polled %d times", h.polls)
	}

	w.Add(1)
	s.Progress()
	if h.polls != 1 {
		t.Fatalf("hook polls = %d after work arrived, want 1", h.polls)
	}
	w.Add(-1)
	s.Progress()
	if h.polls != 1 {
		t.Fatalf("hook polled after counter returned to zero")
	}

	// Drive the call counter to the next multiple of fullPassEvery: the
	// safety-net pass polls even a zero-counted class.
	before := h.polls
	for s.Stats().Calls%fullPassEvery != 0 {
		s.Progress()
	}
	if h.polls != before+1 {
		t.Fatalf("full pass polled hook %d times, want exactly 1", h.polls-before)
	}
}

// TestSkipMaskComposesOverFullPass checks that the stream's permanent
// mask and a per-call mask compose, and that skipped classes stay
// unpolled even across the periodic uncounted full pass.
func TestSkipMaskComposesOverFullPass(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream(WithSkip(Skip(ClassNetmod)))
	net := &fakeHook{results: []bool{true, true}}
	mid := &fakeHook{results: []bool{true, true}}
	registerLive(s, ClassNetmod, net)
	registerLive(s, ClassAsync, mid)
	for i := 0; i < 3*fullPassEvery; i++ {
		s.ProgressMasked(Skip(ClassAsync))
	}
	if net.polls != 0 {
		t.Fatalf("stream-masked netmod polled %d times", net.polls)
	}
	if mid.polls != 0 {
		t.Fatalf("call-masked async class polled %d times", mid.polls)
	}
	if !s.Progress() {
		t.Fatal("unmasked async-class hook should report progress")
	}
	if mid.polls != 1 || net.polls != 0 {
		t.Fatalf("polls after unmasked pass = async %d / net %d, want 1/0", mid.polls, net.polls)
	}
}

// TestTryProgressContended checks the trylock discipline: TryProgress
// on a locked stream reports ok=false without blocking.
func TestTryProgressContended(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	s.mu.Lock()
	if made, ok := s.TryProgress(); ok || made {
		t.Fatalf("TryProgress on contended stream = (%v, %v), want (false, false)", made, ok)
	}
	s.mu.Unlock()
	if _, ok := s.TryProgress(); !ok {
		t.Fatal("TryProgress on free stream should run")
	}
}

// TestProgressAllSkipsContendedStream checks that ProgressAll skips a
// contended stream instead of blocking behind its owner.
func TestProgressAllSkipsContendedStream(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	done := make(chan struct{})
	s.mu.Lock()
	go func() {
		e.ProgressAll() // must return despite s being locked
		close(done)
	}()
	<-done
	s.mu.Unlock()
}

// TestProgressAllIdleNoAlloc is the idle fast-path allocation gate: a
// full ProgressAll sweep over idle streams allocates nothing.
func TestProgressAllIdleNoAlloc(t *testing.T) {
	e := newTestEngine()
	for i := 0; i < 8; i++ {
		e.NewStream()
	}
	e.ProgressAll() // prime the snapshot cache
	if n := testing.AllocsPerRun(200, func() { e.ProgressAll() }); n != 0 {
		t.Fatalf("idle ProgressAll allocates %.1f objects per sweep, want 0", n)
	}
}

// TestStatsPendingLockFree checks that Stats and Pending serve their
// answers while the stream lock is held by someone else.
func TestStatsPendingLockFree(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	s.Progress()
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if s.Stats().Calls != 1 {
			t.Error("Stats under contention lost the call count")
		}
		if s.Pending() != 0 {
			t.Error("Pending under contention should be 0")
		}
	}()
	<-done
}
