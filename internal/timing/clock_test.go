package timing

import (
	"sync"
	"testing"
	"time"
)

func TestRealClockMonotonic(t *testing.T) {
	c := NewRealClock()
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		now := c.Now()
		if now < prev {
			t.Fatalf("real clock went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
}

func TestRealClockAdvances(t *testing.T) {
	c := NewRealClock()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b-a < time.Millisecond {
		t.Fatalf("expected at least 1ms elapsed, got %v", b-a)
	}
}

func TestManualClockAdvance(t *testing.T) {
	c := NewManualClock()
	if c.Now() != 0 {
		t.Fatalf("manual clock should start at zero, got %v", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("got %v, want 5ms", c.Now())
	}
	c.Advance(0)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("zero advance changed time: %v", c.Now())
	}
}

func TestManualClockSet(t *testing.T) {
	c := NewManualClock()
	c.Set(time.Second)
	if c.Now() != time.Second {
		t.Fatalf("got %v, want 1s", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set moving backwards should panic")
		}
	}()
	c.Set(time.Millisecond)
}

func TestManualClockNegativeAdvancePanics(t *testing.T) {
	c := NewManualClock()
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance should panic")
		}
	}()
	c.Advance(-time.Millisecond)
}

func TestManualClockObservers(t *testing.T) {
	c := NewManualClock()
	var got []time.Duration
	c.OnAdvance(func(now time.Duration) { got = append(got, now) })
	c.Advance(time.Millisecond)
	c.Advance(2 * time.Millisecond)
	c.Set(10 * time.Millisecond)
	want := []time.Duration{time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("observer calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observer[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestManualClockConcurrentNow(t *testing.T) {
	c := NewManualClock()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = c.Now()
			}
		}()
	}
	for j := 0; j < 100; j++ {
		c.Advance(time.Microsecond)
	}
	wg.Wait()
	if c.Now() != 100*time.Microsecond {
		t.Fatalf("got %v, want 100us", c.Now())
	}
}

func TestWtime(t *testing.T) {
	c := NewManualClock()
	c.Advance(1500 * time.Millisecond)
	if w := Wtime(c); w != 1.5 {
		t.Fatalf("Wtime = %v, want 1.5", w)
	}
}

func TestBusySpinApproximatesDuration(t *testing.T) {
	for _, d := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond} {
		start := time.Now()
		BusySpin(d)
		got := time.Since(start)
		if got < d {
			t.Errorf("BusySpin(%v) returned too early after %v", d, got)
		}
		if got > 50*d {
			t.Errorf("BusySpin(%v) took far too long: %v", d, got)
		}
	}
}

func TestBusySpinZeroAndNegative(t *testing.T) {
	start := time.Now()
	BusySpin(0)
	BusySpin(-time.Second)
	if time.Since(start) > 10*time.Millisecond {
		t.Fatal("BusySpin(<=0) should return immediately")
	}
}

func TestSpinUntil(t *testing.T) {
	c := NewRealClock()
	deadline := c.Now() + 100*time.Microsecond
	SpinUntil(c, deadline)
	if c.Now() < deadline {
		t.Fatal("SpinUntil returned before deadline")
	}
}

func TestSleepPrecise(t *testing.T) {
	c := NewRealClock()
	deadline := c.Now() + 2*time.Millisecond
	SleepPrecise(c, deadline)
	now := c.Now()
	if now < deadline {
		t.Fatalf("SleepPrecise returned early: now=%v deadline=%v", now, deadline)
	}
	if now-deadline > 5*time.Millisecond {
		t.Fatalf("SleepPrecise overshot by %v", now-deadline)
	}
}
