package mpi

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gompix/internal/core"
)

// TestIdleProgressNoAlloc gates the idle fast path end-to-end: a
// progress pass on a fully wired rank (datatype, collective and netmod
// hooks registered, work counters at zero) allocates nothing.
func TestIdleProgressNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race-detector instrumentation allocates")
	}
	w, _ := steadyWorld()
	defer w.Close()
	p0 := w.Proc(0)
	p0.Progress()
	if n := testing.AllocsPerRun(200, func() { p0.Progress() }); n != 0 {
		t.Fatalf("idle progress pass allocates %.1f objects, want 0", n)
	}
}

// TestEagerSteadyDrainNoAlloc gates the steady-state drain: after
// warmup, draining a window of already-arrived buffered-eager messages
// into posted receives allocates nothing (pooled headers, scratch
// drain buffers). Initiation is outside the measured region, exactly
// like the benchmark's timer bracket. The check retries a few times
// because a GC pass may clear the pools mid-window.
func TestEagerSteadyDrainNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race-detector instrumentation allocates")
	}
	const window = 64
	w, clock := steadyWorld()
	defer w.Close()
	p0 := w.Proc(0)
	reqs := make([]*Request, window)
	rbuf := make([]byte, 32)
	sbuf := make([]byte, 32)
	for i := 0; i < 3; i++ { // warm pools and queue capacities
		eagerSteadyRound(w, clock, reqs, rbuf, sbuf)
		drainAll(p0, reqs)
	}
	var m0, m1 runtime.MemStats
	attempts := 3
	for try := 1; ; try++ {
		// GC first, then an unmeasured warmup round: a GC pass empties
		// the sync.Pool chains, so the next round's Puts re-allocate
		// chain segments. The warmup absorbs that; the measured round
		// then runs against warm pools with no GC in between.
		runtime.GC()
		eagerSteadyRound(w, clock, reqs, rbuf, sbuf)
		drainAll(p0, reqs)
		eagerSteadyRound(w, clock, reqs, rbuf, sbuf)
		runtime.ReadMemStats(&m0)
		drainAll(p0, reqs)
		runtime.ReadMemStats(&m1)
		if m1.Mallocs == m0.Mallocs {
			return
		}
		if try == attempts {
			t.Fatalf("steady-state drain allocated %d objects for %d messages, want 0",
				m1.Mallocs-m0.Mallocs, window)
		}
	}
}

// TestWaitAnyAcrossStreams checks that WaitAny progresses the streams
// of all pending requests: a receive parked on a second stream must
// complete even though the first request's stream never delivers.
func TestWaitAnyAcrossStreams(t *testing.T) {
	w, clock := steadyWorld()
	defer w.Close()
	p0, p1 := w.Proc(0), w.Proc(1)
	comm0, comm1 := p0.CommWorld(), p1.CommWorld()

	s := p0.StreamCreate(core.WithName("side"))
	defer p0.StreamFree(s)
	// StreamComm is collective: both ranks must join concurrently, and
	// its allgather crosses the fabric, which moves with the clock.
	var scomm0, scomm1 *Comm
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); scomm0 = comm0.StreamComm(s) }()
	go func() { defer wg.Done(); scomm1 = comm1.StreamComm(p1.NullStream()) }()
	created := make(chan struct{})
	go func() { wg.Wait(); close(created) }()
	for joining := true; joining; {
		select {
		case <-created:
			joining = false
		case <-time.After(10 * time.Microsecond):
			clock.Advance(time.Microsecond)
		}
	}

	// Request 0: a world-comm receive nothing will ever send to.
	never := comm0.IrecvBytes(make([]byte, 8), 1, 99)
	// Request 1: a stream-comm receive whose message is on the wire.
	got := scomm0.IrecvBytes(make([]byte, 8), 1, 7)
	scomm1.SendBytes([]byte("payload!"), 0, 7)
	clock.Advance(time.Millisecond)

	idx, st := WaitAny(never, got)
	if idx != 1 {
		t.Fatalf("WaitAny returned index %d, want 1", idx)
	}
	if st.Bytes != 8 || st.Source != 1 || st.Tag != 7 {
		t.Fatalf("status = %+v", st)
	}
	never.Cancel()
}
