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

// TestIdleNetmodNeverPolled checks the idle-netmod skip: a netmod
// whose counter reads zero is not polled however many passes run —
// there is no periodic full pass behind the counter — and is polled on
// the first pass after work is counted.
func TestIdleNetmodNeverPolled(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	n := &fakeNetmod{}
	w := s.AttachNetmod(n)

	const passes = 1000
	for i := 0; i < passes; i++ {
		s.Progress()
	}
	if n.polls != 0 {
		t.Fatalf("idle netmod polled %d times in %d passes", n.polls, passes)
	}

	w.Add(1)
	s.Progress()
	if n.polls != 1 {
		t.Fatalf("netmod polls = %d after work arrived, want 1", n.polls)
	}
	w.Add(-1)
	for i := 0; i < passes; i++ {
		s.Progress()
	}
	if n.polls != 1 {
		t.Fatalf("netmod polled %d more times after its counter returned to zero", n.polls-1)
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
