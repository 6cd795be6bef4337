package core

import (
	"testing"
	"time"

	"gompix/internal/timing"
)

func TestNewEngineDefaults(t *testing.T) {
	e := NewEngine(nil)
	if e.Clock() == nil {
		t.Fatal("nil clock should select a real clock")
	}
	if e.Default() == nil {
		t.Fatal("engine must have a NULL stream")
	}
	if e.Default().Name() != "NULL" {
		t.Fatalf("default stream name = %q", e.Default().Name())
	}
}

func TestEngineWtime(t *testing.T) {
	mc := timing.NewManualClock()
	e := NewEngine(mc)
	mc.Advance(250 * time.Millisecond)
	if got := e.Wtime(); got != 0.25 {
		t.Fatalf("Wtime = %v, want 0.25", got)
	}
	if got := e.Now(); got != 250*time.Millisecond {
		t.Fatalf("Now = %v", got)
	}
}

func TestNewStreamAndFree(t *testing.T) {
	e := NewEngine(timing.NewManualClock())
	s1 := e.NewStream(WithName("a"))
	s2 := e.NewStream()
	if s1.ID() == s2.ID() {
		t.Fatal("stream ids must be unique")
	}
	if s1.Name() != "a" {
		t.Fatalf("name = %q", s1.Name())
	}
	if s2.Name() == "" {
		t.Fatal("unnamed stream should get a generated name")
	}
	if n := len(e.Streams()); n != 3 { // NULL + 2
		t.Fatalf("streams = %d, want 3", n)
	}
	e.FreeStream(s1)
	if n := len(e.Streams()); n != 2 {
		t.Fatalf("streams after free = %d, want 2", n)
	}
	// Freeing an unknown stream is a no-op.
	e.FreeStream(s1)
}

func TestFreeStreamWithPendingPanics(t *testing.T) {
	e := NewEngine(timing.NewManualClock())
	s := e.NewStream()
	s.AsyncStart(func(Thing) PollOutcome { return Done }, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("freeing a stream with pending tasks should panic")
		}
	}()
	e.FreeStream(s)
}

func TestEngineStreamOwnership(t *testing.T) {
	e := NewEngine(timing.NewManualClock())
	s := e.NewStream()
	if s.Engine() != e {
		t.Fatal("stream should point back at its engine")
	}
}

func TestProgressAllAndQuiesce(t *testing.T) {
	e := NewEngine(timing.NewManualClock())
	s1 := e.NewStream()
	s2 := e.NewStream()
	count := 0
	mk := func(polls int) PollFunc {
		remaining := polls
		return func(Thing) PollOutcome {
			remaining--
			if remaining <= 0 {
				count++
				return Done
			}
			return NoProgress
		}
	}
	s1.AsyncStart(mk(3), nil)
	s2.AsyncStart(mk(5), nil)
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if !e.Quiesce(100) {
		t.Fatal("Quiesce did not drain")
	}
	if count != 2 {
		t.Fatalf("completed = %d, want 2", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after quiesce = %d", e.Pending())
	}
}

func TestQuiesceBounded(t *testing.T) {
	e := NewEngine(timing.NewManualClock())
	// A task that never completes.
	e.Default().AsyncStart(func(Thing) PollOutcome { return NoProgress }, nil)
	if e.Quiesce(10) {
		t.Fatal("Quiesce should give up after maxSpins")
	}
	if calls := e.Default().Stats().Calls; calls != 10 {
		t.Fatalf("bounded Quiesce made %d passes, want 10", calls)
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassAsync:  "async",
		ClassCont:   "cont",
		ClassNetmod: "netmod",
	}
	if len(want) != int(NumClasses) {
		t.Fatalf("NumClasses = %d, want %d (cont, async, netmod)", NumClasses, len(want))
	}
	for c, name := range want {
		if c.String() != name {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
	if Class(99).String() != "class(99)" {
		t.Fatalf("out of range String = %q", Class(99).String())
	}
}

func TestPollOutcomeString(t *testing.T) {
	for o, want := range map[PollOutcome]string{
		NoProgress:      "NoProgress",
		Progressed:      "Progressed",
		Done:            "Done",
		PollOutcome(42): "PollOutcome(?)",
	} {
		if o.String() != want {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}
