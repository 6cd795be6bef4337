package core

import (
	"testing"
	"testing/quick"
)

// fakeHook is a scriptable subsystem hook.
type fakeHook struct {
	polls   int
	pending int
	results []bool // successive Poll results; after exhaustion, false
}

func (h *fakeHook) Poll() bool {
	h.polls++
	if len(h.results) == 0 {
		return false
	}
	r := h.results[0]
	h.results = h.results[1:]
	return r
}

func (h *fakeHook) Pending() int { return h.pending }

// registerLive registers h on class c with one unit of work parked on
// its counter for good, so that the class is polled on every pass — as
// a byte transport's link keeps its netmod class (framing.Link.BindWork).
func registerLive(s *Stream, c Class, h Hook) {
	s.RegisterHookCounted(c, h).Add(1)
}

func TestRegisterHookInvalidClassPanics(t *testing.T) {
	e := newTestEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid class should panic")
		}
	}()
	e.Default().RegisterHookCounted(NumClasses, &fakeHook{})
}

func TestCollatedOrderShortCircuit(t *testing.T) {
	// The collated pass polls cont, async, netmod in order and stops at
	// the first class that made progress — the paper's Listing 1.1. An
	// async-class hook reporting progress must prevent the netmod hook
	// from being polled.
	e := newTestEngine()
	s := e.NewStream()
	cont := &fakeHook{}
	mid := &fakeHook{results: []bool{true}}
	net := &fakeHook{}
	registerLive(s, ClassCont, cont)
	registerLive(s, ClassAsync, mid)
	registerLive(s, ClassNetmod, net)

	if !s.Progress() {
		t.Fatal("should report progress")
	}
	if cont.polls != 1 || mid.polls != 1 {
		t.Fatalf("cont/async polls = %d/%d, want 1/1", cont.polls, mid.polls)
	}
	if net.polls != 0 {
		t.Fatalf("short-circuit failed: net=%d", net.polls)
	}

	// Second pass: nothing makes progress, so everything is polled.
	if s.Progress() {
		t.Fatal("no progress expected")
	}
	if mid.polls != 2 || net.polls != 1 {
		t.Fatalf("full pass expected: async=%d net=%d", mid.polls, net.polls)
	}
	st := s.Stats()
	if st.MadeByClass[ClassAsync] != 1 {
		t.Fatalf("MadeByClass = %v", st.MadeByClass)
	}
}

func TestAsyncProgressShortCircuitsShmemNetmod(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	net := &fakeHook{}
	registerLive(s, ClassNetmod, net)
	s.AsyncStart(func(Thing) PollOutcome { return Done }, nil)
	s.Progress()
	if net.polls != 0 {
		t.Fatal("async completion should short-circuit netmod")
	}
}

func TestStreamSkipMask(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream(WithSkip(Skip(ClassNetmod)))
	net := &fakeHook{results: []bool{true, true, true}}
	registerLive(s, ClassNetmod, net)
	s.Progress()
	if net.polls != 0 {
		t.Fatal("stream skip mask ignored")
	}
	// A per-call mask adds further skips.
	mid := &fakeHook{results: []bool{true}}
	registerLive(s, ClassAsync, mid)
	s.ProgressMasked(Skip(ClassAsync))
	if mid.polls != 0 {
		t.Fatal("per-call mask ignored")
	}
	if !s.ProgressMasked(0) {
		t.Fatal("async-class hook should report progress when not skipped")
	}
	if mid.polls != 1 {
		t.Fatalf("async-class polls = %d", mid.polls)
	}
}

func TestPerCallMaskSkipsAsync(t *testing.T) {
	e := newTestEngine()
	s := e.Default()
	polled := false
	s.AsyncStart(func(Thing) PollOutcome {
		polled = true
		return Done
	}, nil)
	s.ProgressMasked(Skip(ClassAsync))
	if polled {
		t.Fatal("async class should have been skipped")
	}
	s.Progress()
	if !polled {
		t.Fatal("async task should run on unmasked pass")
	}
}

func TestMultipleHooksSameClassAllPolled(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	h1 := &fakeHook{results: []bool{true}}
	h2 := &fakeHook{results: []bool{true}}
	registerLive(s, ClassNetmod, h1)
	registerLive(s, ClassNetmod, h2)
	s.Progress()
	// Hooks within a class are all polled even if the first progresses;
	// the short-circuit is between classes.
	if h1.polls != 1 || h2.polls != 1 {
		t.Fatalf("polls = %d/%d, want 1/1", h1.polls, h2.polls)
	}
}

func TestPendingIncludesHooks(t *testing.T) {
	e := newTestEngine()
	s := e.NewStream()
	registerLive(s, ClassNetmod, &fakeHook{pending: 3})
	s.AsyncStart(func(Thing) PollOutcome { return Done }, nil)
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want 4", got)
	}
}

// Property: for any subset of classes reporting progress, the collated
// pass stops exactly at the first such class and polls every earlier
// class once.
func TestCollateProperty(t *testing.T) {
	f := func(mask uint8) bool {
		e := newTestEngine()
		s := e.NewStream()
		hooks := make([]*fakeHook, NumClasses)
		for c := Class(0); c < NumClasses; c++ {
			h := &fakeHook{}
			if mask&(1<<uint(c)) != 0 {
				h.results = []bool{true}
			}
			hooks[c] = h
			registerLive(s, c, h)
		}
		made := s.Progress()
		first := -1
		for c := 0; c < int(NumClasses); c++ {
			if mask&(1<<uint(c)) != 0 {
				first = c
				break
			}
		}
		if (first >= 0) != made {
			return false
		}
		for c := 0; c < int(NumClasses); c++ {
			want := 1
			if first >= 0 && c > first {
				want = 0
			}
			if hooks[c].polls != want {
				return false
			}
		}
		return true
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
