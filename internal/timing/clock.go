// Package timing provides the clocks used throughout gompix: a real
// monotonic clock for benchmarks and a manually advanced clock for
// deterministic tests. It also provides busy-wait delays,
// which the benchmark harness uses to simulate poll-function overhead
// and computation phases with sub-millisecond precision.
package timing

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source used by the progress engine, the fabric
// scheduler, and Wtime. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Duration
}

// realClock reads the Go monotonic clock, rebased so that time zero is
// the moment the clock was created. Rebasing keeps durations small and
// makes traces readable.
type realClock struct {
	base time.Time
}

// NewRealClock returns a Clock backed by the monotonic system clock.
func NewRealClock() Clock {
	return &realClock{base: time.Now()}
}

func (c *realClock) Now() time.Duration { return time.Since(c.base) }

// ManualClock is a deterministic clock for tests. Time only moves when
// Advance or Set is called.
type ManualClock struct {
	mu  sync.Mutex
	now time.Duration
	// waiters are callbacks registered by components (e.g. the fabric
	// scheduler in manual mode) that want to observe time changes.
	waiters []func(now time.Duration)
}

// NewManualClock returns a ManualClock starting at time zero.
func NewManualClock() *ManualClock { return &ManualClock{} }

// Now returns the current manual time.
func (c *ManualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and notifies observers.
// It panics if d is negative.
func (c *ManualClock) Advance(d time.Duration) {
	if d < 0 {
		panic("timing: ManualClock.Advance with negative duration")
	}
	c.mu.Lock()
	c.now += d
	now := c.now
	obs := make([]func(time.Duration), len(c.waiters))
	copy(obs, c.waiters)
	c.mu.Unlock()
	for _, f := range obs {
		f(now)
	}
}

// Set moves the clock to an absolute time t, which must not be earlier
// than the current time.
func (c *ManualClock) Set(t time.Duration) {
	c.mu.Lock()
	if t < c.now {
		c.mu.Unlock()
		panic("timing: ManualClock.Set moving backwards")
	}
	c.now = t
	now := c.now
	obs := make([]func(time.Duration), len(c.waiters))
	copy(obs, c.waiters)
	c.mu.Unlock()
	for _, f := range obs {
		f(now)
	}
}

// OnAdvance registers f to be called (outside the clock lock) after
// every Advance or Set. Used by the fabric scheduler in manual mode.
func (c *ManualClock) OnAdvance(f func(now time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.waiters = append(c.waiters, f)
}

// Wtime returns the clock reading in seconds, mirroring MPI_Wtime.
func Wtime(c Clock) float64 { return c.Now().Seconds() }

// spinSink prevents the spin kernel from being optimized away.
var spinSink atomic.Uint64

func spinKernel(n uint64) {
	var acc uint64 = 1
	for i := uint64(0); i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinSink.Store(acc)
}

// BusySpin burns CPU for at least d of wall time without yielding the
// processor. It is used to model poll-function overhead (paper Fig. 8)
// and fine-grained compute phases where time.Sleep is too coarse. It
// spins against the clock, so a spin the kernel deschedules still ends
// no earlier than d after it began. Durations at or below zero return
// immediately.
func BusySpin(d time.Duration) {
	if d <= 0 {
		return
	}
	for start := time.Now(); time.Since(start) < d; {
		spinKernel(16)
	}
}

// SpinUntil burns CPU until clock.Now() >= deadline, yielding the
// processor between probes so that other goroutines (e.g. simulated
// ranks on an oversubscribed host) keep running.
func SpinUntil(clock Clock, deadline time.Duration) {
	for clock.Now() < deadline {
		spinKernel(64)
		runtime.Gosched()
	}
}

// SleepPrecise sleeps until the real deadline with sub-millisecond
// accuracy: it uses time.Sleep for the bulk and busy-spins the final
// stretch. Only meaningful with a real clock.
func SleepPrecise(clock Clock, deadline time.Duration) {
	const spinWindow = 100 * time.Microsecond
	for {
		now := clock.Now()
		if now >= deadline {
			return
		}
		remain := deadline - now
		if remain > spinWindow {
			time.Sleep(remain - spinWindow)
			continue
		}
		SpinUntil(clock, deadline)
		return
	}
}
