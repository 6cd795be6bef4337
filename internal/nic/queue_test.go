package nic

import (
	"sync"
	"sync/atomic"
	"testing"
)

// workSum is a WorkCounter that only sums.
type workSum struct{ n atomic.Int64 }

func (w *workSum) Add(delta int) { w.n.Add(int64(delta)) }

// TestQueueBindCountsQueued: entries queued before Bind are counted by
// it, so the drain that takes them back leaves the counter at zero.
func TestQueueBindCountsQueued(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	var w workSum
	q.Bind(&w)
	if got := w.n.Load(); got != 3 {
		t.Fatalf("counter reads %d after Bind over 3 queued entries, want 3", got)
	}
	q.Push(3)
	if got := q.Drain(make([]int, 0, 8)); len(got) != 4 {
		t.Fatalf("drained %d entries, want 4", len(got))
	}
	if got := w.n.Load(); got != 0 {
		t.Fatalf("counter reads %d after the queue was drained, want 0", got)
	}
}

// TestQueueBindWhilePushing: a producer pushing while the consumer
// binds and drains — a transport watcher delivering to a link whose
// stream is just being set up — leaves the counter equal to the depth
// once both are done, whichever side each entry fell on.
func TestQueueBindWhilePushing(t *testing.T) {
	for round := 0; round < 50; round++ {
		var q Queue[int]
		var w workSum
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := []int{1, 2}
			for i := 0; i < 100; i++ {
				q.Push(i)
				q.PushAll(run)
			}
		}()
		buf := make([]int, 0, 4)
		q.Drain(buf)
		q.Bind(&w)
		q.Drain(buf)
		wg.Wait()
		if got, depth := w.n.Load(), int64(q.Len()); got != depth {
			t.Fatalf("round %d: counter reads %d with %d entries queued", round, got, depth)
		}
		for len(q.Drain(buf)) > 0 {
		}
		if got := w.n.Load(); got != 0 {
			t.Fatalf("round %d: counter reads %d after the queue was drained, want 0", round, got)
		}
	}
}
