package mpi

import (
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
// detector floods, and the aborted plan does not come back to the cache
// — its wire buffer may still be under a send. Byte worlds only: the
// sim fabric has no process to kill.
func TestPlanKillMidCollective(t *testing.T) {
	const n, victim, count = 4, 3, 4
	for _, kind := range []string{"tcp", "shm", "2x2"} {
		t.Run(kind, func(t *testing.T) {
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
			var warm, posted sync.WaitGroup
			warm.Add(n)
			posted.Add(n - 1)
			killed, park := make(chan struct{}), make(chan struct{})
			fail := make([]error, n)
			// The victim joins the warm-up, then parks forever: its
			// goroutine leaks, like a SIGKILLed process.
			go worlds[victim].Run(func(p *Proc) {
				fail[victim] = allreduce(p.CommWorld(), count, 1)
				warm.Done()
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
					worlds[r].Run(func(p *Proc) { fail[r] = killedAllreduce(p, count, &warm, &posted, killed) })
				}(r)
			}
			posted.Wait()
			kill()
			close(killed)
			wg.Wait()
			for r, err := range fail {
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}
		})
	}
}

// killedAllreduce is a survivor's side of TestPlanKillMidCollective.
func killedAllreduce(p *Proc, count int, warm, posted *sync.WaitGroup, killed <-chan struct{}) error {
	c := p.CommWorld()
	err := allreduce(c, count, 1)
	warm.Done()
	if err != nil {
		return fmt.Errorf("warm-up: %v", err)
	}
	warm.Wait()
	req := c.Iallreduce(allreduceIn(p.Rank(), count, 2), make([]byte, 8*count), count, datatype.Float64, reduceop.Sum)
	var completions atomic.Int32
	req.OnComplete(func(Status) { completions.Add(1) })
	if got := idlePlans(c, sumKey(count)); got != 0 {
		return fmt.Errorf("%d idle plans while the only one runs", got)
	}
	posted.Done()
	<-killed
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = req.WaitCtx(ctx)
	switch {
	case errors.Is(err, ErrProcFailed):
		// This rank saw the death itself; unblock the survivors whose
		// stage only waits on another survivor.
		c.Revoke()
	case errors.Is(err, ErrCommRevoked):
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
