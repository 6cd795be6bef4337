package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/reduceop"
	"gompix/internal/transport/tcp"
)

// Plan lifecycle: Barrier, Bcast, Reduce and Allreduce run from plans
// built once per signature and rearmed per call (coll.go). These tests
// hold the lifecycle on every kind of world a plan runs on: a plan is
// never shared by two calls in flight, it comes back to the cache only
// after a clean completion, and the cache stays bounded.

// planWorlds runs fn on every rank of a 4-rank world of each kind: the
// sim fabric with two nodes of two (the two-level algorithms), tcp
// alone and shm alone (flat), and the composite 2×2 (shm inside, tcp
// across: two-level, as in the coll-2x2 benchmark).
func planWorlds(t *testing.T, fn func(t *testing.T, p *Proc)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) {
		run2(t, Config{Procs: 4, ProcsPerNode: 2}, func(p *Proc) { fn(t, p) })
	})
	t.Run("tcp", func(t *testing.T) {
		runRemote(t, tcpWorlds(t, 4, Config{}), func(p *Proc) { fn(t, p) })
	})
	t.Run("shm", func(t *testing.T) {
		worlds, _ := compositeWorlds(t, 4, []int{0, 0, 0, 0}, Config{}, tcp.Config{})
		runRemote(t, worlds, func(p *Proc) { fn(t, p) })
	})
	t.Run("2x2", func(t *testing.T) {
		worlds, _ := compositeWorlds(t, 4, []int{0, 0, 1, 1}, Config{}, tcp.Config{})
		runRemote(t, worlds, func(p *Proc) { fn(t, p) })
	})
}

// allreduceIn is rank's contribution to the call numbered salt: small
// integers as float64, so any association order sums exactly.
func allreduceIn(rank, count, salt int) []byte {
	v := make([]float64, count)
	for i := range v {
		v[i] = float64(i%97 + rank + salt)
	}
	return reduceop.EncodeFloat64s(v)
}

// checkAllreduce compares out with the sum of allreduceIn over n ranks.
func checkAllreduce(out []byte, n, salt int) error {
	for i, got := range reduceop.DecodeFloat64s(out) {
		if want := float64(n*(i%97+salt) + n*(n-1)/2); got != want {
			return fmt.Errorf("element %d of %d: got %v, want %v", i, len(out)/8, got, want)
		}
	}
	return nil
}

// allreduce runs one checked Allreduce of count float64 under salt.
func allreduce(c *Comm, count, salt int) error {
	out := make([]byte, 8*count)
	if st := c.Iallreduce(allreduceIn(c.Rank(), count, salt), out, count, datatype.Float64, reduceop.Sum).Wait(); st.Err != nil {
		return st.Err
	}
	return checkAllreduce(out, c.Size(), salt)
}

// sumKey is the plan signature of a float64 Sum allreduce of count.
func sumKey(count int) planKey {
	return planKey{kind: planAllreduce, count: count, dt: datatype.Float64, op: reduceop.Sum}
}

// idlePlans counts the communicator's idle plans with signature k.
func idlePlans(c *Comm, k planKey) int {
	c.plans.mu.Lock()
	defer c.plans.mu.Unlock()
	n := 0
	for _, p := range c.plans.idle {
		if p.key == k {
			n++
		}
	}
	return n
}

// TestPlanTwoOutstanding: two calls in flight with one signature run two
// plans (the second misses the cache instead of sharing the first's
// buffers), complete correctly when waited in reverse order, and both
// plans come back — the next round reuses them.
func TestPlanTwoOutstanding(t *testing.T) {
	const count = 4
	planWorlds(t, func(t *testing.T, p *Proc) {
		c := p.CommWorld()
		for round := 0; round < 3; round++ {
			out1, out2 := make([]byte, 8*count), make([]byte, 8*count)
			r1 := c.Iallreduce(allreduceIn(p.Rank(), count, 2*round), out1, count, datatype.Float64, reduceop.Sum)
			r2 := c.Iallreduce(allreduceIn(p.Rank(), count, 2*round+1), out2, count, datatype.Float64, reduceop.Sum)
			if st := r2.Wait(); st.Err != nil {
				t.Errorf("rank %d round %d: second call: %v", p.Rank(), round, st.Err)
				return
			}
			if st := r1.Wait(); st.Err != nil {
				t.Errorf("rank %d round %d: first call: %v", p.Rank(), round, st.Err)
				return
			}
			for i, err := range []error{checkAllreduce(out1, 4, 2*round), checkAllreduce(out2, 4, 2*round+1)} {
				if err != nil {
					t.Errorf("rank %d round %d call %d: %v", p.Rank(), round, i+1, err)
				}
			}
			if got := idlePlans(c, sumKey(count)); got != 2 {
				t.Errorf("rank %d round %d: %d idle plans after two clean calls, want 2", p.Rank(), round, got)
			}
		}
	})
}

// TestPlanAlternatingSizes: 8 B, 256 KiB (rendezvous on every byte
// transport), 8 B on one communicator — two signatures, each plan
// reused with its own buffers.
func TestPlanAlternatingSizes(t *testing.T) {
	counts := []int{1, 32 << 10, 1, 32 << 10, 1}
	planWorlds(t, func(t *testing.T, p *Proc) {
		c := p.CommWorld()
		for i, count := range counts {
			if err := allreduce(c, count, i); err != nil {
				t.Errorf("rank %d call %d (%d B): %v", p.Rank(), i, 8*count, err)
				return
			}
		}
		for _, count := range []int{1, 32 << 10} {
			if got := idlePlans(c, sumKey(count)); got != 1 {
				t.Errorf("rank %d: %d idle plans for %d B, want 1", p.Rank(), got, 8*count)
			}
		}
	})
}

// TestPlanCacheBound: more signatures than the cache holds. Every call
// is correct, the cache never holds more than planCacheSize plans, the
// least recently used go first, and an evicted signature is simply
// built again.
func TestPlanCacheBound(t *testing.T) {
	const sigs = planCacheSize + 3
	planWorlds(t, func(t *testing.T, p *Proc) {
		c := p.CommWorld()
		for pass := 0; pass < 2; pass++ {
			for s := 1; s <= sigs; s++ {
				if err := allreduce(c, s, pass*sigs+s); err != nil {
					t.Errorf("rank %d pass %d signature %d: %v", p.Rank(), pass, s, err)
					return
				}
				c.plans.mu.Lock()
				n := len(c.plans.idle)
				c.plans.mu.Unlock()
				if n > planCacheSize {
					t.Errorf("rank %d: %d idle plans, bound %d", p.Rank(), n, planCacheSize)
				}
			}
		}
		if idlePlans(c, sumKey(1)) != 0 || idlePlans(c, sumKey(sigs)) != 1 {
			t.Errorf("rank %d: LRU order broken: first signature cached %d, last %d",
				p.Rank(), idlePlans(c, sumKey(1)), idlePlans(c, sumKey(sigs)))
		}
	})
}

// TestPlanProgressThread: with a progress thread polling the
// communicator's stream, a plan's completion callback runs on that
// thread and hands the plan back while the caller, on its own
// goroutine, takes it for the next call and rearms it. The handoff is
// the callback's last touch of the plan; -race referees it.
func TestPlanProgressThread(t *testing.T) {
	const count, calls = 2, 50
	planWorlds(t, func(t *testing.T, p *Proc) {
		c := p.CommWorld()
		stop := p.ProgressThread(c.Stream())
		defer stop()
		for i := 0; i < calls; i++ {
			if err := allreduce(c, count, i); err != nil {
				t.Errorf("rank %d call %d: %v", p.Rank(), i, err)
				return
			}
		}
	})
}

// TestPlanRevokeThenShrink: an allreduce revoked mid-flight fails with
// ErrCommRevoked and its plan is dropped, not cached; the Shrink'ed
// communicator then runs allreduces from plans of its own.
func TestPlanRevokeThenShrink(t *testing.T) {
	const count = 4
	planWorlds(t, func(t *testing.T, p *Proc) {
		dup := p.CommWorld().Dup()
		if err := allreduce(dup, count, 1); err != nil {
			t.Errorf("rank %d warm-up: %v", p.Rank(), err)
			return
		}
		if p.Rank() == 3 {
			// Never joins the second allreduce; revokes it instead,
			// mid-flight for the other ranks.
			time.Sleep(20 * time.Millisecond)
			dup.Revoke()
		} else {
			req := dup.Iallreduce(allreduceIn(p.Rank(), count, 2), make([]byte, 8*count), count, datatype.Float64, reduceop.Sum)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err := req.WaitCtx(ctx)
			cancel()
			if !errors.Is(err, ErrCommRevoked) {
				t.Errorf("rank %d: revoked allreduce: err = %v, want ErrCommRevoked", p.Rank(), err)
				return
			}
			if got := idlePlans(dup, sumKey(count)); got != 0 {
				t.Errorf("rank %d: the aborted plan came back to the cache (%d idle)", p.Rank(), got)
			}
		}
		child, err := dup.Shrink()
		if err != nil {
			t.Errorf("rank %d: Shrink: %v", p.Rank(), err)
			return
		}
		for salt := 3; salt < 6; salt++ {
			if err := allreduce(child, count, salt); err != nil {
				t.Errorf("rank %d: allreduce on the shrunken comm: %v", p.Rank(), err)
				return
			}
		}
	})
}

// TestPlanKillMidCollective kills one rank of four while the other
// three are inside an allreduce it never joins. Each survivor's request
// completes exactly once, with the failure verdict or the revocation a
// detector floods, and the aborted plan does not come back to the
// cache — at 32 B (eager) and at 256 KiB (rendezvous). Byte worlds
// only: the sim fabric has no process to kill.
func TestPlanKillMidCollective(t *testing.T) {
	for _, kind := range []string{"tcp", "shm", "2x2"} {
		t.Run(kind, func(t *testing.T) {
			for _, count := range []int{4, 32 << 10} {
				t.Run(fmt.Sprintf("%dB", 8*count), func(t *testing.T) { killMidCollective(t, kind, count, 3, true) })
			}
		})
	}
}

// TestPlanKillWithoutRevoke: on the 2×2 world, rank 1 — the first
// leader's partner — dies inside a 256 KiB allreduce and no survivor
// revokes; each sends the dead rank a probe instead, which is how a
// rank that has no link to it learns of the death (the verdict). Rank 0
// aborts on its first stage, before it posts the receive that rank 2's
// rendezvous send waits on, so rank 2's aborted run must not wait for
// that send: every survivor's request completes with the verdict (or,
// under a rendezvous, its link going down). Only once all three have
// does each revoke, which lets Finalize's barrier through.
func TestPlanKillWithoutRevoke(t *testing.T) {
	killMidCollective(t, "2x2", 32<<10, 1, false)
}

// killRun is one killMidCollective: its world's kind, its allreduce's
// count, whether a survivor revokes when it sees the death itself, and
// the points the ranks meet at.
type killRun struct {
	kind          string
	count, victim int
	revoke        bool
	// warm: every rank finished the warm-up allreduce; posted: every
	// survivor posted the killed one; settled: every survivor's killed
	// allreduce completed.
	warm, posted, settled sync.WaitGroup
	killed                chan struct{}
}

// killMidCollective kills victim, one rank of a 4-rank world of kind,
// inside a count-element allreduce; each survivor that sees the death
// itself revokes when revoke is set.
func killMidCollective(t *testing.T, kind string, count, victim int, revoke bool) {
	const n = 4
	var worlds []*World
	var kill func()
	switch kind {
	case "tcp":
		ws, nets := tcpWorldsFail(t, n, Config{}, chaosTCPConfig())
		worlds, kill = ws, nets[victim].Kill
	default:
		nodes := []int{0, 0, 0, 0}
		if kind == "2x2" {
			nodes = []int{0, 0, 1, 1}
		}
		ws, comps := compositeWorlds(t, n, nodes, Config{}, chaosTCPConfig())
		worlds, kill = ws, comps[victim].Kill
	}
	k := &killRun{kind: kind, count: count, victim: victim, revoke: revoke, killed: make(chan struct{})}
	k.warm.Add(n)
	k.posted.Add(n - 1)
	k.settled.Add(n - 1)
	park := make(chan struct{})
	fail := make([]error, n)
	// The victim joins the warm-up, then parks forever: its
	// goroutine leaks, like a SIGKILLed process.
	go worlds[victim].Run(func(p *Proc) {
		fail[victim] = allreduce(p.CommWorld(), count, 1)
		k.warm.Done()
		<-park
	})
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					fail[r] = fmt.Errorf("panicked: %v", e)
				}
			}()
			worlds[r].Run(func(p *Proc) { fail[r] = killedAllreduce(p, k) })
		}(r)
	}
	k.posted.Wait()
	kill()
	close(k.killed)
	wg.Wait()
	for r, err := range fail {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// killedAllreduce is a survivor's side of killMidCollective.
func killedAllreduce(p *Proc, k *killRun) error {
	c, count := p.CommWorld(), k.count
	settle := sync.OnceFunc(k.settled.Done)
	defer func() {
		// Without revocations, Finalize's barrier waits on the dead
		// rank: revoke once every survivor's request has completed.
		settle()
		if !k.revoke {
			k.settled.Wait()
			c.Revoke()
		}
	}()
	err := allreduce(c, count, 1)
	k.warm.Done()
	if err != nil {
		k.posted.Done()
		return fmt.Errorf("warm-up: %v", err)
	}
	k.warm.Wait()
	req := c.Iallreduce(allreduceIn(p.Rank(), count, 2), make([]byte, 8*count), count, datatype.Float64, reduceop.Sum)
	var completions atomic.Int32
	req.OnComplete(func(Status) { completions.Add(1) })
	if got := idlePlans(c, sumKey(count)); got != 0 {
		k.posted.Done()
		return fmt.Errorf("%d idle plans while the only one runs", got)
	}
	k.posted.Done()
	<-k.killed
	if !k.revoke {
		c.IsendBytes([]byte{0}, k.victim, 0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = req.WaitCtx(ctx)
	settle()
	// On tcp a lost connection is the verdict, which reaches the links
	// ahead of the frames it fails; a world with an shm leg may still
	// see a rendezvous's data fail as its link going down first.
	linkDown := k.kind != "tcp" && 8*count > p.world.cfg.RndvThreshold
	switch {
	case errors.Is(err, ErrProcFailed), linkDown && errors.Is(err, ErrLinkDown):
		// This rank saw the death itself — as the verdict or, under a
		// rendezvous's data on shm, as its link going down; unblock the
		// survivors whose stage only waits on another survivor.
		if k.revoke {
			c.Revoke()
		}
	case k.revoke && errors.Is(err, ErrCommRevoked):
	default:
		return fmt.Errorf("allreduce: err = %v, want ErrProcFailed or ErrCommRevoked", err)
	}
	for deadline := time.Now().Add(5 * time.Second); completions.Load() == 0 && time.Now().Before(deadline); {
		p.StreamProgress(c.Stream())
	}
	for i := 0; i < 100; i++ {
		p.StreamProgress(c.Stream())
	}
	if got := completions.Load(); got != 1 {
		return fmt.Errorf("request completed %d times, want once", got)
	}
	if got := idlePlans(c, sumKey(count)); got != 0 {
		return fmt.Errorf("the aborted plan came back to the cache (%d idle)", got)
	}
	return nil
}

// planOf returns the wire buffer of c's idle plan for k, and whether
// there is one.
func planOf(c *Comm, k planKey) (wire []byte, ok bool) {
	c.plans.mu.Lock()
	defer c.plans.mu.Unlock()
	for _, p := range c.plans.idle {
		if p.key == k {
			return p.wire, true
		}
	}
	return nil, false
}

// TestPlanCallerBuffers: planned Allreduce, Bcast and Reduce of a
// contiguous type run in the caller's buffers — their plans hold no
// wire buffer (a non-root Reduce keeps one: its accumulator) — and so
// does Scan; a Bcast of a Vector type runs through the plan's wire
// buffer, gaps untouched. Each runs two calls in flight with one signature and
// different buffers, and in place where MPI has the form: every result
// is right, and every send buffer is byte-identical afterwards.
// Reductions take contiguous types only (the kernels fold base-type
// elements): a reduction of a Vector panics at the call.
func TestPlanCallerBuffers(t *testing.T) {
	const count = 6
	planWorlds(t, func(t *testing.T, p *Proc) {
		c := p.CommWorld()
		n, me := c.Size(), c.Rank()
		fail := func(format string, args ...any) {
			t.Errorf("rank %d: "+format, append([]any{me}, args...)...)
		}
		same := func(what string, got, want []byte) {
			if !bytes.Equal(got, want) {
				fail("%s changed", what)
			}
		}
		wait := func(what string, reqs ...*Request) {
			for i := len(reqs) - 1; i >= 0; i-- {
				if st := reqs[i].Wait(); st.Err != nil {
					fail("%s call %d: %v", what, i+1, st.Err)
				}
			}
		}

		// Allreduce: two in flight, then in place.
		in1, in2 := allreduceIn(me, count, 1), allreduceIn(me, count, 2)
		keep1, keep2 := bytes.Clone(in1), bytes.Clone(in2)
		out1, out2 := make([]byte, 8*count), make([]byte, 8*count)
		wait("allreduce",
			c.Iallreduce(in1, out1, count, datatype.Float64, reduceop.Sum),
			c.Iallreduce(in2, out2, count, datatype.Float64, reduceop.Sum))
		for _, err := range []error{checkAllreduce(out1, n, 1), checkAllreduce(out2, n, 2)} {
			if err != nil {
				fail("allreduce: %v", err)
			}
		}
		same("allreduce sendBuf 1", in1, keep1)
		same("allreduce sendBuf 2", in2, keep2)
		inPlace := allreduceIn(me, count, 3)
		wait("in-place allreduce", c.Iallreduce(nil, inPlace, count, datatype.Float64, reduceop.Sum))
		if err := checkAllreduce(inPlace, n, 3); err != nil {
			fail("in-place allreduce: %v", err)
		}
		if wire, ok := planOf(c, sumKey(count)); !ok || wire != nil {
			fail("allreduce plan cached %v, wire %d B: want a plan without one", ok, len(wire))
		}

		// Reduce to root 2: two in flight, then in place at the root.
		const root = 2
		rkey := planKey{kind: planReduce, count: count, dt: datatype.Float64, op: reduceop.Sum, root: root}
		out1, out2 = make([]byte, 8*count), make([]byte, 8*count)
		wait("reduce",
			c.Ireduce(in1, out1, count, datatype.Float64, reduceop.Sum, root),
			c.Ireduce(in2, out2, count, datatype.Float64, reduceop.Sum, root))
		same("reduce sendBuf 1", in1, keep1)
		same("reduce sendBuf 2", in2, keep2)
		inPlace = allreduceIn(me, count, 4)
		send := inPlace
		if me == root {
			send = nil
		}
		wait("in-place reduce", c.Ireduce(send, inPlace, count, datatype.Float64, reduceop.Sum, root))
		if me == root {
			for i, out := range [][]byte{out1, out2, inPlace} {
				if err := checkAllreduce(out, n, []int{1, 2, 4}[i]); err != nil {
					fail("reduce call %d: %v", i+1, err)
				}
			}
		}
		if wire, ok := planOf(c, rkey); !ok || (wire != nil) != (me != root) {
			fail("reduce plan cached %v, wire %d B: want one only off the root", ok, len(wire))
		}

		// Scan, unplanned but in the caller's buffers all the same: two in
		// flight, then in place. Rank me ends with the sum over ranks 0..me.
		checkScan := func(out []byte, salt int) error {
			for i, got := range reduceop.DecodeFloat64s(out) {
				if want := float64((me+1)*(i%97+salt) + me*(me+1)/2); got != want {
					return fmt.Errorf("element %d of %d: got %v, want %v", i, len(out)/8, got, want)
				}
			}
			return nil
		}
		out1, out2 = make([]byte, 8*count), make([]byte, 8*count)
		wait("scan",
			c.Iscan(in1, out1, count, datatype.Float64, reduceop.Sum),
			c.Iscan(in2, out2, count, datatype.Float64, reduceop.Sum))
		same("scan sendBuf 1", in1, keep1)
		same("scan sendBuf 2", in2, keep2)
		inPlace = allreduceIn(me, count, 5)
		wait("in-place scan", c.Iscan(nil, inPlace, count, datatype.Float64, reduceop.Sum))
		for i, out := range [][]byte{out1, out2, inPlace} {
			if err := checkScan(out, []int{1, 2, 5}[i]); err != nil {
				fail("scan call %d: %v", i+1, err)
			}
		}

		vec := datatype.Vector(2, 1, 2, datatype.Float64)
		refused := func(what string, call func()) {
			defer func() {
				if recover() == nil {
					fail("%s of a Vector was not refused at the call", what)
				}
			}()
			call()
		}
		span := datatype.BufferSpan(count, vec)
		refused("allreduce", func() { c.Iallreduce(make([]byte, span), make([]byte, span), count, vec, reduceop.Sum) })
		refused("reduce", func() { c.Ireduce(make([]byte, span), make([]byte, span), count, vec, reduceop.Sum, root) })
		refused("scan", func() { c.Iscan(make([]byte, span), make([]byte, span), count, vec, reduceop.Sum) })

		// Bcast from root 1, of float64 and of a gapped vector: the root's
		// buffer is both what is sent and what must not change.
		for _, dt := range []*datatype.Datatype{datatype.Float64, vec} {
			span := datatype.BufferSpan(count, dt)
			bufs := [2][]byte{}
			for i := range bufs {
				bufs[i] = bytes.Repeat([]byte{byte(0xE0 + i)}, span)
				if me == 1 {
					bufs[i] = allreduceIn(10+i, span/8, 0)
				}
			}
			keep := [2][]byte{bytes.Clone(bufs[0]), bytes.Clone(bufs[1])}
			wait("bcast "+dt.Name(),
				c.Ibcast(bufs[0], count, dt, 1),
				c.Ibcast(bufs[1], count, dt, 1))
			for i, buf := range bufs {
				want := allreduceIn(10+i, span/8, 0)
				for _, b := range dt.Blocks() {
					for e := 0; e < count; e++ {
						lo, hi := e*dt.Extent()+b.Off, e*dt.Extent()+b.Off+b.Len
						if !bytes.Equal(buf[lo:hi], want[lo:hi]) {
							fail("bcast %s call %d: element %d differs from the root's", dt.Name(), i+1, e)
						}
						copy(keep[i][lo:hi], want[lo:hi]) // what a receiver's buffer must hold
					}
				}
				same(fmt.Sprintf("bcast %s buffer %d outside the data", dt.Name(), i+1), buf, keep[i])
			}
			k := planKey{kind: planBcast, count: count, dt: dt, root: 1}
			if wire, ok := planOf(c, k); !ok || (wire != nil) != !dt.Contig() {
				fail("bcast %s plan cached %v, wire %d B", dt.Name(), ok, len(wire))
			}
		}
	})
}
