package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refMatcher is an obviously-correct reference model: linear scans over
// append-only slices with explicit removal marks.
type refMatcher struct {
	posted []refPosted
	unexp  []refUnexp
}

type refPosted struct {
	ctx      uint32
	src, tag int
	id       int
	consumed bool
}

type refUnexp struct {
	ctx      uint32
	src, tag int
	id       int
	consumed bool
}

func (m *refMatcher) postRecv(id int, ctx uint32, src, tag int) (matchedUnexp int, ok bool) {
	for i := range m.unexp {
		e := &m.unexp[i]
		if !e.consumed && match(e.ctx, ctx, e.src, e.tag, src, tag) {
			e.consumed = true
			return e.id, true
		}
	}
	m.posted = append(m.posted, refPosted{ctx: ctx, src: src, tag: tag, id: id})
	return 0, false
}

func (m *refMatcher) arrive(id int, ctx uint32, src, tag int) (matchedPosted int, ok bool) {
	for i := range m.posted {
		p := &m.posted[i]
		if !p.consumed && match(ctx, p.ctx, src, tag, p.src, p.tag) {
			p.consumed = true
			return p.id, true
		}
	}
	m.unexp = append(m.unexp, refUnexp{ctx: ctx, src: src, tag: tag, id: id})
	return 0, false
}

// TestMatcherEquivalenceProperty drives the production matcher and the
// reference model with identical random operation sequences and
// requires identical match decisions.
func TestMatcherEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var m matcher
		m.init()
		ref := &refMatcher{}
		reqByID := map[int]*Request{}
		idOf := map[*Request]int{}
		nextID := 1
		for step := 0; step < 200; step++ {
			ctx := uint32(rng.Intn(2))
			src := rng.Intn(3)
			tag := rng.Intn(3)
			if rng.Intn(4) == 0 {
				src = AnySource
			}
			if rng.Intn(4) == 0 {
				tag = AnyTag
			}
			id := nextID
			nextID++
			if rng.Intn(2) == 0 {
				// Post a receive.
				req := &Request{}
				reqByID[id] = req
				idOf[req] = id
				e, ok, _ := m.postRecv(req, ctx, src, tag, -1)
				refID, refOK := ref.postRecv(id, ctx, src, tag)
				if ok != refOK {
					return false
				}
				if ok && e.bytes != refID {
					return false // unexpected entry identity mismatch
				}
			} else {
				// Arrival (concrete src/tag only).
				aSrc, aTag := src, tag
				if aSrc == AnySource {
					aSrc = rng.Intn(3)
				}
				if aTag == AnyTag {
					aTag = rng.Intn(3)
				}
				req := m.matchOrEnqueue(ctx, aSrc, aTag, func() unexpected {
					return unexpected{ctx: ctx, src: aSrc, tag: aTag, kind: unexpEager, bytes: id}
				})
				refID, refOK := ref.arrive(id, ctx, aSrc, aTag)
				if (req != nil) != refOK {
					return false
				}
				if req != nil && idOf[req] != refID {
					return false // matched the wrong posted receive
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatcherQueueLens(t *testing.T) {
	var m matcher
	m.init()
	req := &Request{}
	m.postRecv(req, 0, 1, 1, -1)
	if p, u := m.queueLens(); p != 1 || u != 0 {
		t.Fatalf("lens %d/%d", p, u)
	}
	m.matchOrEnqueue(0, 2, 2, func() unexpected {
		return unexpected{ctx: 0, src: 2, tag: 2}
	})
	if p, u := m.queueLens(); p != 1 || u != 1 {
		t.Fatalf("lens %d/%d", p, u)
	}
	// Matching arrival consumes the posted entry.
	if r := m.matchOrEnqueue(0, 1, 1, func() unexpected { panic("should match") }); r != req {
		t.Fatal("wrong request matched")
	}
	if p, _ := m.queueLens(); p != 0 {
		t.Fatal("posted not consumed")
	}
}

func TestMatcherFIFOWithinMatches(t *testing.T) {
	// Two posted receives with identical signatures match arrivals in
	// post order (MPI non-overtaking).
	var m matcher
	m.init()
	r1, r2 := &Request{}, &Request{}
	m.postRecv(r1, 0, 0, 5, -1)
	m.postRecv(r2, 0, 0, 5, -1)
	if got := m.matchOrEnqueue(0, 0, 5, nil); got != r1 {
		t.Fatal("first arrival should match first posted")
	}
	if got := m.matchOrEnqueue(0, 0, 5, nil); got != r2 {
		t.Fatal("second arrival should match second posted")
	}
}

func TestMatcherWildcardPriority(t *testing.T) {
	// A wildcard receive posted before a specific one wins the match
	// (posted-queue order, as MPI requires).
	var m matcher
	m.init()
	wild, specific := &Request{}, &Request{}
	m.postRecv(wild, 0, AnySource, AnyTag, -1)
	m.postRecv(specific, 0, 1, 1, -1)
	if got := m.matchOrEnqueue(0, 1, 1, nil); got != wild {
		t.Fatal("wildcard posted first should match first")
	}
	if got := m.matchOrEnqueue(0, 1, 1, nil); got != specific {
		t.Fatal("specific should match second arrival")
	}
}

// The reference model's side of cancels and failure sweeps, for the
// deep-queue test below: the same linear scans with removal marks.

func (m *refMatcher) cancel(id int) bool {
	for i := range m.posted {
		if p := &m.posted[i]; !p.consumed && p.id == id {
			p.consumed = true
			return true
		}
	}
	return false
}

// sweep consumes every live posted entry dropP picks and every live
// unexpected entry dropU picks, returning their ids in queue order.
func (m *refMatcher) sweep(dropP func(*refPosted) bool, dropU func(*refUnexp) bool) (ps, us []int) {
	for i := range m.posted {
		if p := &m.posted[i]; !p.consumed && dropP(p) {
			p.consumed = true
			ps = append(ps, p.id)
		}
	}
	for i := range m.unexp {
		if e := &m.unexp[i]; !e.consumed && dropU(e) {
			e.consumed = true
			us = append(us, e.id)
		}
	}
	return ps, us
}

func (m *refMatcher) live() (posted []refPosted, unexp []refUnexp) {
	for _, p := range m.posted {
		if !p.consumed {
			posted = append(posted, p)
		}
	}
	for _, e := range m.unexp {
		if !e.consumed {
			unexp = append(unexp, e)
		}
	}
	return posted, unexp
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMatcherDeepQueuesEquivalence drives the matcher and the reference
// model over deep queues — the posted queue refilled to at least 200
// receives, arrivals that match its head (the FIFO stream), its middle
// or nothing, a quiet communicator whose arrivals pile up unexpected,
// specific and wildcard posts, cancels, and failPeer/failCtx sweeps —
// and requires identical decisions and queue lengths at every step and
// identical queue contents every 100 steps. The sender's rank doubles
// as its world rank; rendezvous arrivals carry their sender so failPeer
// can drop them.
func TestMatcherDeepQueuesEquivalence(t *testing.T) {
	// Receives are posted mostly on contexts 0–3; contexts 4 and 5 are
	// a communicator that receives rarely, so its arrivals pile up in
	// the unexpected queue.
	const ranks, tags, ctxs, quiet = 8, 4, 4, 2
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m matcher
		m.init()
		ref := &refMatcher{}
		dead := map[int]bool{}
		reqByID, idOf := map[int]*Request{}, map[*Request]int{}
		rtsKind := map[int]bool{}
		nextID := 1
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
		}
		post := func(step int, ctx uint32, src, tag int) {
			id := nextID
			nextID++
			req := &Request{}
			reqByID[id], idOf[req] = req, id
			worldSrc := src
			if src == AnySource {
				worldSrc = -1
			}
			e, ok, err := m.postRecv(req, ctx, src, tag, worldSrc)
			refID, refOK := ref.postRecv(id, ctx, src, tag)
			refErr := false
			if !refOK {
				if src == AnySource {
					refErr = len(dead) > 0
				} else {
					refErr = dead[src]
				}
				if refErr {
					ref.posted = ref.posted[:len(ref.posted)-1] // it failed instead of queueing
				}
			}
			if ok != refOK || (ok && e.bytes != refID) || (err != nil) != refErr {
				fail(step, "post ctx %d src %d tag %d: got (%v, %d, %v), reference (%v, %d, err %v)", ctx, src, tag, ok, e.bytes, err, refOK, refID, refErr)
			}
		}
		arrive := func(step int, ctx uint32, src, tag int) {
			id := nextID
			nextID++
			kind := unexpEager
			if rng.Intn(4) == 0 {
				kind = unexpRTS
				rtsKind[id] = true
			}
			req := m.matchOrEnqueue(ctx, src, tag, func() unexpected {
				return unexpected{ctx: ctx, src: src, tag: tag, kind: kind, bytes: id, worldSrc: src, addr: 1}
			})
			refID, refOK := ref.arrive(id, ctx, src, tag)
			if (req != nil) != refOK || (req != nil && idOf[req] != refID) {
				fail(step, "arrival ctx %d src %d tag %d matched %d, reference %d (%v)", ctx, src, tag, idOf[req], refID, refOK)
			}
		}
		for step := 0; step < 3000; step++ {
			livePosted, _ := ref.live()
			for len(livePosted) < 200 { // keep the posted queue deep
				for i := 0; i < 100; i++ {
					post(step, uint32(rng.Intn(ctxs)), rng.Intn(ranks), rng.Intn(tags))
				}
				livePosted, _ = ref.live()
			}
			ctx, src, tag := uint32(rng.Intn(ctxs)), rng.Intn(ranks), rng.Intn(tags)
			switch r := rng.Intn(100); {
			case r < 30: // the FIFO stream: an arrival for the head receive
				if len(livePosted) > 0 && livePosted[0].src != AnySource && livePosted[0].tag != AnyTag {
					h := livePosted[0]
					ctx, src, tag = h.ctx, h.src, h.tag
				}
				arrive(step, ctx, src, tag)
			case r < 45: // an arrival for a receive deep in the queue
				if len(livePosted) > 0 {
					p := livePosted[rng.Intn(len(livePosted))]
					ctx = p.ctx
					if p.src != AnySource {
						src = p.src
					}
					if p.tag != AnyTag {
						tag = p.tag
					}
				}
				arrive(step, ctx, src, tag)
			case r < 50: // an arrival that may match nothing
				arrive(step, ctx, src, tag)
			case r < 58: // an arrival on the quiet communicator
				arrive(step, ctxs+uint32(rng.Intn(quiet)), src, tag)
			case r < 78:
				post(step, ctx, src, tag)
			case r < 82: // a receive on the quiet communicator
				post(step, ctxs+uint32(rng.Intn(quiet)), src, tag)
			case r < 90: // a wildcard receive
				if rng.Intn(2) == 0 {
					src = AnySource
				} else {
					tag = AnyTag
				}
				post(step, ctx, src, tag)
			case r < 98: // cancel a queued receive, or one already gone
				if len(livePosted) == 0 {
					continue
				}
				id := livePosted[rng.Intn(len(livePosted))].id
				if rng.Intn(4) == 0 {
					id = rng.Intn(nextID) + 1
				}
				req := reqByID[id]
				if req == nil {
					continue
				}
				if got, want := m.cancel(req), ref.cancel(id); got != want {
					fail(step, "cancel %d: %v, reference %v", id, got, want)
				}
			case r < 99 && rng.Intn(3) == 0: // revoke a communicator's two contexts
				c := uint32(rng.Intn((ctxs+quiet)/2) * 2)
				reqs, rts := m.failCtx(c)
				revoked := func(ec uint32, etag int) bool { return ec == c || (ec == c+1 && etag < ftTagBase) }
				wantP, wantU := ref.sweep(
					func(p *refPosted) bool { return revoked(p.ctx, p.tag) },
					func(e *refUnexp) bool { return revoked(e.ctx, e.tag) })
				var gotP, gotR, wantR []int
				for _, r := range reqs {
					gotP = append(gotP, idOf[r])
				}
				for _, e := range rts {
					gotR = append(gotR, e.bytes)
				}
				for _, id := range wantU {
					if rtsKind[id] {
						wantR = append(wantR, id)
					}
				}
				if !sameIDs(gotP, wantP) || !sameIDs(gotR, wantR) {
					fail(step, "failCtx %d: receives %v rts %v, reference %v %v", c, gotP, gotR, wantP, wantR)
				}
			case r == 99: // a peer dies, at most twice a run
				if len(dead) == 2 || dead[src] || rng.Intn(5) != 0 {
					continue
				}
				dead[src] = true
				reqs, first := m.failPeer(src, ErrProcFailed)
				wantP, _ := ref.sweep(
					func(p *refPosted) bool { return p.src == src || p.src == AnySource },
					func(e *refUnexp) bool { return e.src == src && rtsKind[e.id] })
				var gotP []int
				for _, r := range reqs {
					gotP = append(gotP, idOf[r])
				}
				if !first || !sameIDs(gotP, wantP) {
					fail(step, "failPeer %d: receives %v (first %v), reference %v", src, gotP, first, wantP)
				}
			}
			lp, lu := ref.live()
			if np, nu := m.queueLens(); np != len(lp) || nu != len(lu) {
				fail(step, "queue lengths %d/%d, reference %d/%d", np, nu, len(lp), len(lu))
			}
			if step%100 == 0 {
				for i, p := range lp {
					if got := idOf[m.posted.at(i).req]; got != p.id {
						fail(step, "posted[%d] is %d, reference %d", i, got, p.id)
					}
				}
				for i, e := range lu {
					if got := m.unexp.at(i).bytes; got != e.id {
						fail(step, "unexp[%d] is %d, reference %d", i, got, e.id)
					}
				}
			}
		}
	}
}

// TestMatcherVacatedSlotsCleared: a consumed entry leaves nothing
// behind in a queue's backing array. A posted receive's slot holds its
// request, and through it the caller's buffer; an unexpected entry's
// holds its payload. Both must be unreachable from the matcher once
// the entry is matched, whatever position it was matched at, or swept.
func TestMatcherVacatedSlotsCleared(t *testing.T) {
	const n = 16
	var m matcher
	m.init()
	postedClear := func(after string) {
		t.Helper()
		for i, p := range postedSlots(&m) {
			if p.req != nil {
				t.Errorf("after %s, posted slot %d of %d still references a consumed request", after, i, len(postedSlots(&m)))
			}
		}
	}
	unexpClear := func(after string) {
		t.Helper()
		for i, e := range unexpSlots(&m) {
			if e.data != nil {
				t.Errorf("after %s, unexpected slot %d of %d still references a consumed payload", after, i, len(unexpSlots(&m)))
			}
		}
	}
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{}
		m.postRecv(reqs[i], 0, 0, i, -1)
	}
	// The head, the tail, then entries in the middle.
	order := []int{0, n - 1, n / 2, 1, n - 2, 3, 9, 5, 12, 2, 6, 10, 13, 4, 11, 7}
	for _, tag := range order {
		if got := m.matchOrEnqueue(0, 0, tag, nil); got != reqs[tag] {
			t.Fatalf("arrival with tag %d matched the wrong receive", tag)
		}
	}
	postedClear("matching")
	// Sweeps vacate slots too: a peer's failure takes half of these
	// receives, the revocation of their communicator the rest.
	for i := 0; i < n; i++ {
		m.postRecv(&Request{}, 2, i%2, i, i%2)
	}
	if reqs, _ := m.failPeer(1, ErrProcFailed); len(reqs) != n/2 {
		t.Fatalf("failPeer took %d receives, want %d", len(reqs), n/2)
	}
	if reqs, _ := m.failCtx(2); len(reqs) != n/2 {
		t.Fatalf("failCtx took %d receives, want %d", len(reqs), n/2)
	}
	postedClear("the sweeps")
	for i := 0; i < n; i++ {
		m.matchOrEnqueue(0, 0, i, func() unexpected {
			return unexpected{ctx: 0, src: 0, tag: i, data: make([]byte, 8)}
		})
	}
	for _, tag := range order {
		if _, ok, _ := m.postRecv(&Request{}, 0, 0, tag, -1); !ok {
			t.Fatalf("receive with tag %d found no message", tag)
		}
	}
	unexpClear("matching")
	for i := 0; i < n; i++ {
		m.matchOrEnqueue(4, 0, i, func() unexpected {
			return unexpected{ctx: 4, src: 0, tag: i, data: make([]byte, 8)}
		})
	}
	m.failCtx(4)
	unexpClear("a revocation")
}

// postedSlots and unexpSlots are the queues' whole backing arrays, up
// to their capacity.
func postedSlots(m *matcher) []posted    { return m.posted.s[:cap(m.posted.s)] }
func unexpSlots(m *matcher) []unexpected { return m.unexp.s[:cap(m.unexp.s)] }

// BenchmarkMatchDepth times the steady state of a receive stream: the
// arrival matches the head of a posted queue depth entries deep, and a
// new receive joins at the tail. It costs the same at every depth.
func BenchmarkMatchDepth(b *testing.B) {
	for _, depth := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var m matcher
			m.init()
			for i := 0; i < depth; i++ {
				m.postRecv(&Request{}, 0, 0, 0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := m.matchOrEnqueue(0, 0, 0, nil)
				m.postRecv(req, 0, 0, 0, 0)
			}
		})
	}
}
