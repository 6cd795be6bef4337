package nic

import (
	"sync"
	"sync/atomic"
)

// Queue is the drain queue behind every completion and receive queue —
// the simulated endpoint's, the Reliable layer's, a byte transport
// link's: producers append under a lock, MPI progress drains in batches
// into a caller-owned buffer, and a depth counter beside the lock lets
// an empty poll cost one atomic load (the paper's requirement for cheap
// collated progress). A bound WorkCounter mirrors the depth. The zero
// value is an empty queue.
type Queue[T any] struct {
	mu   sync.Mutex
	q    []T
	n    atomic.Int64
	work WorkCounter // guarded by mu
}

// Bind attaches the work counter that mirrors the queue's depth, once.
// Producers may already be pushing — a transport's watcher delivers to
// a link whenever bytes for it arrive — so the counter is published
// under the queue's lock and starts at the depth already queued: each
// entry is counted by the push that made it or by Bind, never by both,
// and a drain takes back only what was counted.
func (q *Queue[T]) Bind(w WorkCounter) {
	q.mu.Lock()
	q.work = w
	depth := len(q.q)
	q.mu.Unlock()
	if w != nil && depth > 0 {
		w.Add(depth)
	}
}

// Push appends one entry and returns the new depth.
func (q *Queue[T]) Push(e T) int64 {
	q.mu.Lock()
	q.q = append(q.q, e)
	w := q.work
	q.mu.Unlock()
	return q.pushed(1, w)
}

// PushAll appends a run of entries: one lock acquisition and one work
// bump per run, not per entry.
func (q *Queue[T]) PushAll(es []T) {
	q.mu.Lock()
	q.q = append(q.q, es...)
	w := q.work
	q.mu.Unlock()
	q.pushed(len(es), w)
}

// pushed accounts for n entries appended while w was the bound counter.
func (q *Queue[T]) pushed(n int, w WorkCounter) int64 {
	depth := q.n.Add(int64(n))
	if w != nil {
		w.Add(n)
	}
	return depth
}

// Drain moves up to cap(buf) entries into buf[:0] and returns the
// filled slice — one lock acquisition per batch, zero allocations. An
// empty drain costs one atomic load. The entries are owned by the
// caller until the next Drain with the same buffer.
func (q *Queue[T]) Drain(buf []T) []T {
	buf = buf[:0]
	if q.n.Load() == 0 || cap(buf) == 0 {
		return buf
	}
	q.mu.Lock()
	n := min(len(q.q), cap(buf))
	buf = append(buf, q.q[:n]...)
	rest := copy(q.q, q.q[n:])
	// Zero the vacated tail so drained entries do not linger in the
	// queue's backing array (they may reference pooled send state).
	var zero T
	for i := rest; i < len(q.q); i++ {
		q.q[i] = zero
	}
	q.q = q.q[:rest]
	w := q.work
	q.mu.Unlock()
	q.n.Add(-int64(n))
	if w != nil {
		w.Add(-n)
	}
	return buf
}

// Len returns the number of undrained entries (one atomic load).
func (q *Queue[T]) Len() int { return int(q.n.Load()) }
