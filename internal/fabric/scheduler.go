// Package fabric simulates the interconnect of a cluster: a
// discrete-event scheduler plus a link model with per-hop latency,
// bandwidth serialization, optional jitter, and FIFO ordering per
// directed endpoint pair. The simulated NIC (internal/nic) injects
// packets into the fabric; the fabric delivers them to receive queues
// at the modeled time.
//
// Two clock modes are supported. With a real clock the scheduler runs a
// dispatch goroutine that sleeps (with sub-millisecond precision) until
// each event is due — benchmarks use this. With a timing.ManualClock
// events fire during Advance, giving deterministic unit tests.
//
// A packet in flight costs no garbage: an event is a value — due time,
// sequence number, Handler and Packet — in a slice-backed heap, and
// the handlers it names are built once per destination (the delivery
// handler at Attach, the NIC's send completion when its endpoint is
// made). Delivery accounting is atomic, so the dispatch goroutine does
// not take the network's lock.
package fabric

import (
	"sync"
	"time"

	"gompix/internal/timing"
)

// Handler is what an event does when it fires: it is handed the time
// the event was due and the packet the event carries. A handler is
// built once per destination (Network.Attach builds one per endpoint),
// so scheduling a packet allocates nothing.
type Handler func(at time.Duration, pkt Packet)

// event is one scheduled handler call, kept by value in the heap.
type event struct {
	at  time.Duration
	seq uint64 // tie-break so equal-time events run in schedule order
	h   Handler
	pkt Packet
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap on (at, seq) over a slice of values:
// once the slice has grown to the peak number of pending events, a
// push or pop allocates nothing.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, event{})
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// pop removes and returns the earliest event; the heap is not empty.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // the vacated slot must not keep a payload alive
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(&s[c]) {
			c = r
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// Scheduler dispatches timed events against a Clock.
type Scheduler struct {
	clock  timing.Clock
	manual bool

	mu     sync.Mutex
	events eventHeap
	seq    uint64
	wake   chan struct{}
	done   chan struct{}
	closed bool
}

// NewScheduler returns a scheduler for the clock. If the clock is a
// *timing.ManualClock, events fire synchronously inside Advance/Set;
// otherwise a dispatch goroutine is started (stop it with Stop).
func NewScheduler(clock timing.Clock) *Scheduler {
	s := &Scheduler{
		clock: clock,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	if mc, ok := clock.(*timing.ManualClock); ok {
		s.manual = true
		mc.OnAdvance(func(time.Duration) { s.runDue() })
	} else {
		go s.loop()
	}
	return s
}

// Schedule calls h(t, pkt) at absolute clock time t. Events scheduled
// in the past (t <= now) run as soon as possible; in manual mode they
// run synchronously before Schedule returns.
func (s *Scheduler) Schedule(t time.Duration, h Handler, pkt Packet) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, h: h, pkt: pkt})
	s.mu.Unlock()
	if s.manual {
		s.runDue()
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// PendingEvents returns the number of scheduled, not-yet-fired events.
func (s *Scheduler) PendingEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// NextEventTime returns the due time of the earliest pending event and
// whether one exists.
func (s *Scheduler) NextEventTime() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// Stop terminates the dispatch goroutine (real-clock mode). Pending
// events are dropped. Safe to call multiple times.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.events = nil
	s.mu.Unlock()
	close(s.done)
	if !s.manual {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// RunUntil advances a manual clock event-by-event up to target: each
// pending event fires with the clock set to exactly its due time, so
// deliveries observe faithful timestamps. Requires a manual clock.
func (s *Scheduler) RunUntil(target time.Duration) {
	mc, ok := s.clock.(*timing.ManualClock)
	if !ok {
		panic("fabric: RunUntil requires a timing.ManualClock")
	}
	for {
		s.mu.Lock()
		var next time.Duration
		have := false
		if !s.closed && len(s.events) > 0 {
			next = s.events[0].at
			have = true
		}
		s.mu.Unlock()
		if !have || next > target {
			break
		}
		if next > mc.Now() {
			mc.Set(next) // fires due events via OnAdvance
		} else {
			s.runDue()
		}
	}
	if target > mc.Now() {
		mc.Set(target)
	}
}

// runDue fires every event whose time has come. Used in manual mode and
// by the dispatch loop.
func (s *Scheduler) runDue() {
	for {
		now := s.clock.Now()
		s.mu.Lock()
		if s.closed || len(s.events) == 0 || s.events[0].at > now {
			s.mu.Unlock()
			return
		}
		e := s.events.pop()
		s.mu.Unlock()
		e.h(e.at, e.pkt)
	}
}

// loop is the real-clock dispatch goroutine.
func (s *Scheduler) loop() {
	for {
		select {
		case <-s.done:
			return
		default:
		}
		s.runDue()
		s.mu.Lock()
		var next time.Duration
		have := false
		if len(s.events) > 0 {
			next = s.events[0].at
			have = true
		}
		s.mu.Unlock()
		if !have {
			select {
			case <-s.wake:
			case <-s.done:
				return
			}
			continue
		}
		now := s.clock.Now()
		if next <= now {
			continue
		}
		remain := next - now
		// Sleep the bulk, spin the final stretch for microsecond
		// delivery accuracy; bail out early if woken for a new,
		// earlier event. The window is kept small so the dispatch
		// goroutine does not monopolize a core between widely spaced
		// events on oversubscribed hosts.
		const spinWindow = 50 * time.Microsecond
		if remain > spinWindow {
			t := time.NewTimer(remain - spinWindow)
			select {
			case <-t.C:
			case <-s.wake:
				t.Stop()
			case <-s.done:
				t.Stop()
				return
			}
			continue
		}
		timing.SpinUntil(s.clock, now+remain)
	}
}
