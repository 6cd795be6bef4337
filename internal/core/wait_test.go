package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/metrics"
)

// waitEngine returns an engine wired to an enabled registry under the
// scope "r", and a reader for its rank-scoped wait counters.
func waitEngine() (*Engine, func(name string) uint64) {
	reg := metrics.New()
	reg.Enable()
	e := NewEngine(nil)
	e.UseMetrics(reg, "r")
	return e, func(name string) uint64 { return reg.Snapshot().Counter("r.core.wait." + name) }
}

// countedNetmod is a netmod with a work counter and no other
// behaviour: it reports progress once per unit of work and retires the
// unit.
type countedNetmod struct {
	w     *Work
	units atomic.Int64
	seen  atomic.Int64
}

func (h *countedNetmod) Poll() bool {
	n := h.units.Swap(0)
	if n == 0 {
		return false
	}
	h.w.Add(-int(n))
	h.seen.Add(n)
	return true
}
func (h *countedNetmod) Pending() int  { return int(h.units.Load()) }
func (h *countedNetmod) Parking() bool { return true }
func (h *countedNetmod) Queued() int   { return int(h.units.Load()) }

// arrive delivers one unit the way nic.Queue does: count, queue,
// announce.
func (h *countedNetmod) arrive() {
	h.w.Add(1)
	h.units.Add(1)
	h.w.Arrived()
}

func newCountedNetmod(s *Stream) *countedNetmod {
	h := &countedNetmod{}
	h.w = s.AttachNetmod(h)
	return h
}

// TestAwaitYieldsFirst: on one core, a waiter whose completion comes
// from a runnable goroutine hands it the core after its first empty
// pass — it makes a handful of passes, not a spin rung's worth, and
// never reaches the park rung.
func TestAwaitYieldsFirst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, counter := waitEngine()
	s := e.Default()
	h := newCountedNetmod(s)
	const rounds = 1000
	go func() {
		for i := 0; i < rounds; i++ {
			for h.seen.Load() != int64(i) {
				runtime.Gosched()
			}
			h.arrive()
		}
	}()
	before := s.Stats().Calls
	for i := 1; i <= rounds; i++ {
		s.Await(func() bool { return h.seen.Load() >= int64(i) }, nil, nil)
	}
	if perWait := float64(s.Stats().Calls-before) / rounds; perWait > 4 {
		t.Errorf("%.1f passes per wait; a yield-first ladder needs about two", perWait)
	}
	if got := counter("parks"); got != 0 {
		t.Errorf("parked %d times with a runnable producer", got)
	}
	if got := counter("waits"); got != rounds {
		t.Errorf("wait.waits = %d, want %d", got, rounds)
	}
	if counter("yields") == 0 {
		t.Error("no yield was counted")
	}
}

// TestAwaitParksAndEveryArrivalWakes: with nobody runnable the waiter
// reaches the park rung after one pass budget, and each kind of
// arrival on the stream — counted work, a deferred continuation, a
// staged async thing — ends the park before its timer.
func TestAwaitParksAndEveryArrivalWakes(t *testing.T) {
	arrivals := map[string]func(s *Stream, h *countedNetmod, done *atomic.Bool){
		"work": func(s *Stream, h *countedNetmod, done *atomic.Bool) {
			h.arrive()
			done.Store(true)
		},
		"defer": func(s *Stream, h *countedNetmod, done *atomic.Bool) {
			s.Defer(func() { done.Store(true) })
		},
		"async": func(s *Stream, h *countedNetmod, done *atomic.Bool) {
			s.AsyncStart(func(Thing) PollOutcome { done.Store(true); return Done }, nil)
		},
	}
	// With the timer out of the way the waiter, once parked, stays
	// parked until the arrival: the poke is the only way out.
	defer SetParkCap(10 * time.Second)()
	for name, arrive := range arrivals {
		t.Run(name, func(t *testing.T) {
			e, counter := waitEngine()
			s := e.Default()
			h := newCountedNetmod(s)
			var done atomic.Bool
			arrived := make(chan struct{})
			go func() {
				defer close(arrived)
				for s.parked.Load() == 0 {
					time.Sleep(10 * time.Microsecond)
				}
				arrive(s, h, &done)
			}()
			s.Await(done.Load, nil, nil)
			<-arrived // the poke is counted after it is sent
			if parks, early := counter("parks"), counter("early_wakes"); parks == 0 || parks != early {
				t.Errorf("%d parks, %d ended early", parks, early)
			}
			if counter("pokes") == 0 {
				t.Error("arrival did not poke the parked waiter")
			}
			if s.parked.Load() != 0 {
				t.Errorf("parked count %d after the wait", s.parked.Load())
			}
		})
	}
}

// TestAwaitNoLostWakeup publishes work at a random phase around the
// waiter's raise-parked → re-check pass → sleep sequence. Whatever the
// interleaving, the waiter must see the unit at once: by the re-check
// pass, or by the poke. With the timer bound raised far above any
// scheduling delay, a single park that ends on its timer is a lost
// wake-up.
func TestAwaitNoLostWakeup(t *testing.T) {
	defer SetParkCap(2 * time.Second)()
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	e, counter := waitEngine()
	s := e.Default()
	h := newCountedNetmod(s)
	go func() {
		rng := rand.New(rand.NewSource(1))
		for i := 1; i <= rounds; i++ {
			// Round i's waiter has raised the count: it is somewhere
			// between that store and the end of its sleep.
			for s.parked.Load() == 0 || h.seen.Load() != int64(i-1) {
				runtime.Gosched()
			}
			for spin := rng.Intn(200); spin > 0; spin-- {
				_ = s.parked.Load()
			}
			h.arrive()
		}
	}()
	for i := 1; i <= rounds; i++ {
		s.Await(func() bool { return h.seen.Load() >= int64(i) }, nil, nil)
	}
	parks, early := counter("parks"), counter("early_wakes")
	t.Logf("%d rounds: %d parks, %d ended early", rounds, parks, early)
	if parks == 0 {
		t.Fatal("waiter never slept: the stress did not reach the park rung")
	}
	if parks != early {
		t.Errorf("%d of %d parks slept out their timer with work pending", parks-early, parks)
	}
}

func TestAwaitCancel(t *testing.T) {
	e, _ := waitEngine()
	s := e.Default()
	stop := errors.New("stop")
	calls := 0
	err := s.Await(func() bool { return false }, func() error {
		if calls++; calls > 3 {
			return stop
		}
		return nil
	}, nil)
	if err != stop {
		t.Fatalf("Await = %v, want the cancel error", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.ProgressUntilCtx(ctx, func() bool { return false }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ProgressUntilCtx = %v, want deadline exceeded", err)
	}
}

// TestAwaitCustomPass: a wait over more than one stream passes its own
// round and still completes.
func TestAwaitCustomPass(t *testing.T) {
	e, _ := waitEngine()
	a, b := e.Default(), e.NewStream()
	done := false
	b.AsyncStart(func(Thing) PollOutcome { done = true; return Done }, nil)
	a.Await(func() bool { return done }, nil, e.ProgressAll)
	if !done {
		t.Fatal("the other stream's task never ran")
	}
}
