package core

import (
	"testing"
	"testing/quick"
)

// fakeNetmod is a scriptable netmod.
type fakeNetmod struct {
	polls   int
	pending int
	results []bool // successive Poll results; after exhaustion, false
}

func (n *fakeNetmod) Poll() bool {
	n.polls++
	if len(n.results) == 0 {
		return false
	}
	r := n.results[0]
	n.results = n.results[1:]
	return r
}

func (n *fakeNetmod) Pending() int  { return n.pending }
func (n *fakeNetmod) Parking() bool { return true }
func (n *fakeNetmod) Queued() int   { return 0 }

// attachLive attaches n with one unit of work parked on its counter for
// good, so that it is polled on every pass that reaches its slot — as
// a byte transport's link keeps it (framing.Link.BindWork).
func attachLive(s *Stream, n *fakeNetmod) *fakeNetmod {
	s.AttachNetmod(n).Add(1)
	return n
}

func TestAttachNetmodTwicePanics(t *testing.T) {
	s := newTestEngine().NewStream()
	s.AttachNetmod(&fakeNetmod{})
	defer func() {
		if recover() == nil {
			t.Fatal("a second netmod should panic")
		}
	}()
	s.AttachNetmod(&fakeNetmod{})
}

func TestCollatedOrderShortCircuit(t *testing.T) {
	// The collated pass polls continuations, async things and the
	// netmod in order and stops at the first slot that made progress —
	// the paper's Listing 1.1. A continuation that ran keeps the async
	// things and the netmod from being polled on its pass; an async
	// thing that progressed keeps the netmod from being polled on its.
	e := newTestEngine()
	s := e.NewStream()
	net := attachLive(s, &fakeNetmod{})
	var order []string
	s.Defer(func() { order = append(order, "cont") })
	var stop bool
	s.AsyncStart(func(Thing) PollOutcome {
		order = append(order, "async")
		switch {
		case stop:
			return Done
		case len(order) == 2:
			return Progressed
		}
		return NoProgress
	}, nil)

	for pass, want := range []string{"cont", "async"} {
		if !s.Progress() {
			t.Fatalf("pass %d should report progress", pass)
		}
		if got := order[len(order)-1]; got != want || len(order) != pass+1 {
			t.Fatalf("pass %d polled %v, want %q last", pass, order, want)
		}
		if net.polls != 0 {
			t.Fatalf("pass %d: short-circuit failed, netmod polled %d times", pass, net.polls)
		}
	}

	// Third pass: nothing makes progress, so every slot with work is
	// polled, the netmod last.
	if s.Progress() {
		t.Fatal("no progress expected")
	}
	if len(order) != 3 || net.polls != 1 {
		t.Fatalf("full pass expected: polled %v, netmod %d times", order, net.polls)
	}
	st := s.Stats()
	if st.MadeByClass != [NumClasses]uint64{ClassCont: 1, ClassAsync: 1} {
		t.Fatalf("MadeByClass = %v", st.MadeByClass)
	}
	stop = true
	s.ProgressUntil(func() bool { return s.PendingAsync() == 0 })
}

func TestAsyncProgressShortCircuitsShmemNetmod(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	net := attachLive(s, &fakeNetmod{})
	s.AsyncStart(func(Thing) PollOutcome { return Done }, nil)
	s.Progress()
	if net.polls != 0 {
		t.Fatal("async completion should short-circuit netmod")
	}
}

func TestPendingIncludesHooks(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	attachLive(s, &fakeNetmod{pending: 3})
	s.AsyncStart(func(Thing) PollOutcome { return Done }, nil)
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
}

// Property: for any subset of slots reporting progress — a queued
// continuation, an async thing that completes, a netmod poll that
// delivers — the collated pass stops exactly at the first such slot
// and polls every earlier slot once. An async thing that makes no
// progress and a live netmod stand in the other slots, so a poll of
// either shows.
func TestCollateProperty(t *testing.T) {
	f := func(mask uint8) bool {
		e := newTestEngine()
		s := e.NewStream()
		has := func(c Class) bool { return mask&(1<<uint(c)) != 0 }
		contRuns := 0
		if has(ClassCont) {
			s.Defer(func() { contRuns++ })
		}
		asyncPolls := 0
		s.AsyncStart(func(Thing) PollOutcome {
			asyncPolls++
			if has(ClassAsync) {
				return Done
			}
			return NoProgress
		}, nil)
		net := attachLive(s, &fakeNetmod{results: []bool{has(ClassNetmod)}})
		made := s.Progress()
		first := NumClasses
		for c := Class(0); c < NumClasses; c++ {
			if has(c) {
				first = c
				break
			}
		}
		if made != (first < NumClasses) {
			return false
		}
		polled := func(c Class) int {
			if first < c {
				return 0
			}
			return 1
		}
		if has(ClassCont) && contRuns != 1 {
			return false
		}
		if asyncPolls != polled(ClassAsync) || net.polls != polled(ClassNetmod) {
			return false
		}
		return first == NumClasses || s.Stats().MadeByClass[first] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionFlag(t *testing.T) {
	var f CompletionFlag
	if f.IsSet() {
		t.Fatal("zero flag should be unset")
	}
	if !f.Set() {
		t.Fatal("first Set should return true")
	}
	if !f.IsSet() {
		t.Fatal("flag should be set")
	}
	if f.Set() {
		t.Fatal("second Set should return false")
	}
	f.Reset()
	if f.IsSet() {
		t.Fatal("Reset should clear")
	}
}
