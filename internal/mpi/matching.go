package mpi

import (
	"sort"
	"sync"
	"time"

	"gompix/internal/fabric"
)

// unexpKind discriminates unexpected-queue entries.
type unexpKind uint8

const (
	// unexpEager is a fully arrived eager message (payload buffered).
	unexpEager unexpKind = iota
	// unexpRTS is a rendezvous request-to-send awaiting a matching
	// receive before data flows.
	unexpRTS
)

// unexpected is one entry in the unexpected-message queue.
type unexpected struct {
	ctx  uint32
	src  int // sender's rank in the communicator
	tag  int
	kind unexpKind

	data  []byte // unexpEager: complete payload
	stage []byte // unexpEager: data's staging buffer (wireHdr.stage), returned after delivery
	bytes int    // total message payload size

	// Rendezvous metadata (unexpRTS).
	sreqID uint64            // sender-side handle id echoed in the CTS or FIN
	srcEP  fabric.EndpointID // where to send the CTS or FIN
	addr   uint64            // the sender's bytes when the RTS was advertised

	// flow correlates rendezvous trace flow events across ranks
	// (unexpRTS; 0 when tracing is off).
	flow uint64

	// worldSrc is the sender's world rank, recorded for unexpRTS entries
	// so failPeer can drop rendezvous handshakes whose data phase can
	// never run. Other kinds leave it zero (they are never swept by
	// sender).
	worldSrc int

	// at is the engine time the entry was queued; 0 when metrics were
	// off at enqueue.
	at time.Duration
}

// posted is one entry in the posted-receive queue.
type posted struct {
	ctx uint32
	src int // may be AnySource
	tag int // may be AnyTag
	req *Request

	// worldSrc is the expected sender's world rank (-1 for AnySource),
	// the key failPeer sweeps by.
	worldSrc int

	// at is the engine time the receive was posted; 0 when metrics were
	// off at enqueue.
	at time.Duration
}

// queue is a FIFO of matching entries. Matching is first-fit from the
// head, and in steady state the match is the head: removing it advances
// a head offset, O(1) whatever the depth. A removal further in shifts
// the entries behind it up by one. The backing array is compacted when
// a push would grow it and at least half of it is behind the head. Every
// vacated slot is zeroed, so a consumed entry — a posted receive's
// request and buffer, an eager payload — is not kept reachable.
type queue[T any] struct {
	s    []T // s[head:] are the live entries
	head int
}

func (q *queue[T]) len() int { return len(q.s) - q.head }

// at returns the i-th live entry, 0 being the head.
func (q *queue[T]) at(i int) *T { return &q.s[q.head+i] }

func (q *queue[T]) push(e T) {
	if len(q.s) == cap(q.s) && q.head > 0 && q.head >= len(q.s)/2 {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, e)
}

// remove deletes the i-th live entry.
func (q *queue[T]) remove(i int) {
	var zero T
	if i > 0 { // the entries behind it move up
		j := q.head + i
		copy(q.s[j:], q.s[j+1:])
		q.s[len(q.s)-1] = zero
		q.s = q.s[:len(q.s)-1]
		return
	}
	q.s[q.head] = zero
	q.head++
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
}

// removeIf deletes every entry drop reports true for, keeping the rest
// in order.
func (q *queue[T]) removeIf(drop func(*T) bool) {
	kept := q.s[:0]
	for i := q.head; i < len(q.s); i++ {
		if !drop(&q.s[i]) {
			kept = append(kept, q.s[i])
		}
	}
	clear(q.s[len(kept):])
	q.s, q.head = kept, 0
}

// matcher is the per-VCI tag-matching engine: a posted-receive queue
// and an unexpected-message queue, both matched in FIFO order with
// wildcard support. It has its own lock because application threads
// post receives while progress contexts deliver arrivals — the
// initiation/progress contention the paper discusses in §4.2.
type matcher struct {
	mu     sync.Mutex
	posted queue[posted]
	unexp  queue[unexpected]

	postedHits uint64
	unexpHits  uint64

	// dead maps a failed peer's world rank to the ErrProcFailed-wrapped
	// error recorded at its verdict (failPeer); nil until the first
	// failure. Receives targeting a dead peer fail at post time instead
	// of queueing forever.
	dead map[int]error

	// met/now are the optional observability wiring (VCI.UseMetrics):
	// queue-depth gauges and queued-time histograms.
	met *vciMetrics
	now func() time.Duration
}

func (m *matcher) init() {}

func match(ctx uint32, eCtx uint32, eSrc, eTag, src, tag int) bool {
	return ctx == eCtx && (src == AnySource || src == eSrc) && (tag == AnyTag || tag == eTag)
}

// postRecv either matches an unexpected entry (removing and returning
// it) or appends the request to the posted queue. worldSrc is the
// expected sender's world rank (-1 for AnySource). A receive that can
// only be satisfied by a dead peer returns that peer's failure error
// instead of queueing forever; already-arrived messages still match
// first, so data that made it across before the crash is deliverable.
// An AnySource receive fails if any peer is dead (ULFM-style: the
// wildcard cannot be proven satisfiable once a potential sender died).
func (m *matcher) postRecv(req *Request, ctx uint32, src, tag, worldSrc int) (unexpected, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mm := m.met
	mon := mm != nil && mm.reg.On()
	for i := 0; i < m.unexp.len(); i++ {
		if e := m.unexp.at(i); match(e.ctx, ctx, e.src, e.tag, src, tag) {
			found := *e
			m.unexp.remove(i)
			m.unexpHits++
			if mon {
				mm.unexpHits.Inc()
				mm.unexpDepth.Set(int64(m.unexp.len()))
				if found.at > 0 {
					mm.unexpWait.Observe(int64(m.now() - found.at))
				}
			}
			return found, true, nil
		}
	}
	if len(m.dead) > 0 {
		if src == AnySource {
			for _, err := range m.dead {
				return unexpected{}, false, err
			}
		} else if worldSrc >= 0 {
			if err := m.dead[worldSrc]; err != nil {
				return unexpected{}, false, err
			}
		}
	}
	p := posted{ctx: ctx, src: src, tag: tag, worldSrc: worldSrc, req: req}
	if mon {
		p.at = m.now()
	}
	m.posted.push(p)
	if mon {
		mm.postedDepth.Set(int64(m.posted.len()))
	}
	return unexpected{}, false, nil
}

// peerErr returns the failure error recorded for a peer's world rank,
// or nil while the peer is (believed) alive.
func (m *matcher) peerErr(worldRank int) error {
	if worldRank < 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead == nil {
		return nil
	}
	return m.dead[worldRank]
}

// failPeer records a peer's failure verdict and sweeps the queues: it
// removes and returns every posted receive that can no longer be
// satisfied (specific receives from the dead rank, plus AnySource
// receives — see postRecv), and drops pending RTS entries from the
// dead peer, whose data phase can never run. Buffered eager payloads
// stay: their data already arrived and remains deliverable. first is
// false when the verdict for this rank was already processed. The
// caller completes the returned requests outside the matching lock.
func (m *matcher) failPeer(worldRank int, procErr error) (reqs []*Request, first bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead == nil {
		m.dead = make(map[int]error)
	}
	if _, dup := m.dead[worldRank]; dup {
		return nil, false
	}
	m.dead[worldRank] = procErr
	m.posted.removeIf(func(p *posted) bool {
		if p.worldSrc == worldRank || p.src == AnySource {
			reqs = append(reqs, p.req)
			return true
		}
		return false
	})
	m.unexp.removeIf(func(e *unexpected) bool {
		return e.kind == unexpRTS && e.worldSrc == worldRank
	})
	m.setDepths()
	return reqs, true
}

// deadRanks returns the world ranks with recorded failure verdicts,
// in ascending order.
func (m *matcher) deadRanks() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.dead) == 0 {
		return nil
	}
	out := make([]int, 0, len(m.dead))
	for r := range m.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// failCtx sweeps one communicator's matching state after a revocation
// (ULFM MPIX_Comm_revoke semantics): every posted receive on the
// revoked pt2pt context, and every posted receive on its collective
// context below the fault-tolerance tag floor, is removed and returned
// for completion with the revocation error. Unexpected entries on the
// same contexts are dropped — a revoked communicator's traffic is dead,
// and the sender side is swept symmetrically by its own revocation —
// except that the dropped advertised RTS entries are returned (rts):
// their senders wait for an answer.
// Receives at or above ftTagBase on the collective context are the
// recovery protocol's own (Agree/Shrink), which MUST keep working on a
// revoked communicator, so they survive the sweep. The caller completes
// the returned requests outside the matching lock.
func (m *matcher) failCtx(ctx uint32) (reqs []*Request, rts []unexpected) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posted.removeIf(func(p *posted) bool {
		if inCtx(ctx, p.ctx, p.tag) {
			reqs = append(reqs, p.req)
			return true
		}
		return false
	})
	m.unexp.removeIf(func(e *unexpected) bool {
		if !inCtx(ctx, e.ctx, e.tag) {
			return false
		}
		if e.kind == unexpRTS && e.addr != 0 {
			rts = append(rts, *e)
		}
		return true
	})
	m.setDepths()
	return reqs, rts
}

// matchOrEnqueue atomically resolves an arrival: it either removes and
// returns the first matching posted receive, or — while still holding
// the matching lock — appends the unexpected entry built by mk and
// returns nil. The single critical section is essential: doing the
// match and the enqueue under separate lock acquisitions would let a
// concurrently posted receive slip between them, leaving both the
// message and the receive queued forever (a race that real progress
// threads hit).
func (m *matcher) matchOrEnqueue(ctx uint32, src, tag int, mk func() unexpected) *Request {
	m.mu.Lock()
	defer m.mu.Unlock()
	mm := m.met
	mon := mm != nil && mm.reg.On()
	for i := 0; i < m.posted.len(); i++ {
		if p := m.posted.at(i); match(ctx, p.ctx, src, tag, p.src, p.tag) {
			req, at := p.req, p.at
			m.posted.remove(i)
			m.postedHits++
			if mon {
				mm.postedHits.Inc()
				mm.postedDepth.Set(int64(m.posted.len()))
				if at > 0 {
					mm.postedWait.Observe(int64(m.now() - at))
				}
			}
			return req
		}
	}
	e := mk()
	if mon {
		e.at = m.now()
	}
	m.unexp.push(e)
	if mon {
		mm.unexpDepth.Set(int64(m.unexp.len()))
	}
	return nil
}

// cancel removes a posted receive that has not yet matched, reporting
// whether it was still queued. A false return means an arrival already
// claimed (or is about to complete) the request.
func (m *matcher) cancel(req *Request) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < m.posted.len(); i++ {
		if m.posted.at(i).req == req {
			m.posted.remove(i)
			if mm := m.met; mm != nil && mm.reg.On() {
				mm.postedDepth.Set(int64(m.posted.len()))
			}
			return true
		}
	}
	return false
}

// probe peeks at the unexpected queue (MPI_Iprobe): it reports whether
// a matching message has arrived, without consuming it.
func (m *matcher) probe(ctx uint32, src, tag int) (Status, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < m.unexp.len(); i++ {
		if e := m.unexp.at(i); match(e.ctx, ctx, e.src, e.tag, src, tag) {
			return Status{Source: e.src, Tag: e.tag, Bytes: e.bytes}, true
		}
	}
	return Status{}, false
}

// queueLens reports current queue lengths (diagnostics and tests).
func (m *matcher) queueLens() (nPosted, nUnexp int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.posted.len(), m.unexp.len()
}

// setDepths publishes both queue depths after a sweep.
func (m *matcher) setDepths() {
	if mm := m.met; mm != nil && mm.reg.On() {
		mm.postedDepth.Set(int64(m.posted.len()))
		mm.unexpDepth.Set(int64(m.unexp.len()))
	}
}
