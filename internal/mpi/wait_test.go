package mpi

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/metrics"
	"gompix/internal/reduceop"
	"gompix/internal/transport/tcp"
)

// waitCounter reads one of rank's wait-ladder counters.
func waitCounter(reg *metrics.Registry, rank int, name string) uint64 {
	return reg.Snapshot().Counter(fmt.Sprintf("rank%d.core.wait.%s", rank, name))
}

// ladderWorlds runs fn on every rank of a world of the named kind with
// an enabled registry: "sim" is one in-process World, "tcp" a two-rank
// job on loopback sockets alone, "shm" a two-rank composite job on one
// node, "2x2" a four-rank composite job on two nodes of two.
func ladderWorlds(t *testing.T, kind string, reg *metrics.Registry, fn func(*Proc)) {
	t.Helper()
	switch kind {
	case "sim":
		run2(t, Config{Procs: 2, ProcsPerNode: 1, Metrics: reg}, fn)
	case "tcp":
		runRemote(t, tcpWorlds(t, 2, Config{Metrics: reg}), fn)
	case "shm":
		worlds, _ := compositeWorlds(t, 2, []int{0, 0}, Config{Metrics: reg}, tcp.Config{})
		runRemote(t, worlds, fn)
	case "shm-rings":
		worlds, comps := compositeWorlds(t, 2, []int{0, 0}, Config{Metrics: reg}, tcp.Config{})
		spoilProbes(comps)
		runRemote(t, worlds, fn)
	case "2x2":
		worlds, _ := compositeWorlds(t, 4, []int{0, 0, 1, 1}, Config{Metrics: reg}, tcp.Config{})
		runRemote(t, worlds, fn)
	default:
		t.Fatalf("unknown world kind %q", kind)
	}
}

// TestWaitLadderOneCore counts progress passes, not time. With every
// rank a goroutine on one core, a blocking call's empty pass must hand
// the core to the rank that will produce its completion: the passes
// rank 0 makes per completed operation stay far below the 64 a spin
// rung burned on every wait, and in the ping-pongs — where the only
// peer is always runnable — the waiter never reaches the park rung.
//
// On tcp that takes a reactor that reads its sockets on the caller's
// passes: nothing runs the netpoller its watchers sleep in while two
// ranks yield to each other, and a receive left to the every-64th
// uncounted pass costs 64 passes and more. The sockets of a tcp world
// connect inside the run, and a connect does end in the netpoller: both
// ranks park until the idle runtime looks there, and one may leave the
// barrier while the other sleeps such a park out. The tcp case
// therefore runs its body twice and judges the second run, parks
// included.
func TestWaitLadderOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ops = 2000
	pingpong := func(p *Proc) (before, after uint64) {
		comm := p.CommWorld()
		buf := make([]byte, 8)
		comm.Barrier()
		before = p.NullStream().Stats().Calls
		for i := 0; i < ops; i++ {
			if p.Rank() == 0 {
				comm.SendBytes(buf, 1, 1)
				comm.RecvBytes(buf, 1, 1)
			} else {
				comm.RecvBytes(buf, 0, 1)
				comm.SendBytes(buf, 0, 1)
			}
		}
		return before, p.NullStream().Stats().Calls
	}
	allreduce := func(p *Proc) (before, after uint64) {
		comm := p.CommWorld()
		in, out := make([]byte, 8), make([]byte, 8)
		comm.Barrier()
		before = p.NullStream().Stats().Calls
		for i := 0; i < ops; i++ {
			comm.Allreduce(in, out, 1, datatype.Float64, reduceop.Sum)
		}
		return before, p.NullStream().Stats().Calls
	}
	cases := []struct {
		kind      string
		body      func(*Proc) (before, after uint64)
		maxPasses float64 // rank 0's passes per operation
		noParks   bool
		connects  bool // the first run of body is set-up, parks and all
	}{
		{"sim", pingpong, 32, true, false},
		{"tcp", pingpong, 8, true, true},
		{"shm", pingpong, 8, true, false},
		{"2x2", allreduce, 48, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			reg := metrics.New()
			reg.Enable()
			var perOp float64
			var parks, setup uint64
			ladderWorlds(t, tc.kind, reg, func(p *Proc) {
				if tc.connects {
					tc.body(p)
					if p.Rank() == 0 {
						setup = waitCounter(reg, 0, "parks")
					}
				}
				before, after := tc.body(p)
				if p.Rank() == 0 {
					perOp = float64(after-before) / ops
					parks = waitCounter(reg, 0, "parks") - setup
				}
			})
			t.Logf("%.1f passes per operation, %d parks", perOp, parks)
			if perOp > tc.maxPasses {
				t.Errorf("%.1f passes per operation, want at most %.0f", perOp, tc.maxPasses)
			}
			if tc.noParks && parks != 0 {
				t.Errorf("rank 0 parked %d times while its peer was runnable", parks)
			}
		})
	}
}

// TestBlockingCallsShareOneWait: every public blocking call is Await
// with its own condition, so each advances rank 0's wait.waits — also
// WaitAny over requests on two streams, and every call again in a
// global-lock world.
func TestBlockingCallsShareOneWait(t *testing.T) {
	type call struct {
		name string
		// rank0 blocks in the call under test; rank1 is the matching
		// peer side (nil: nothing to do).
		rank0, rank1 func(p *Proc, comm *Comm)
	}
	send := func(tag int) func(*Proc, *Comm) {
		return func(p *Proc, comm *Comm) { comm.SendBytes([]byte{1}, 0, tag) }
	}
	irecv := func(comm *Comm, tag int) *Request { return comm.IrecvBytes(make([]byte, 1), 1, tag) }
	calls := []call{
		{"Wait", func(p *Proc, c *Comm) { irecv(c, 1).Wait() }, send(1)},
		{"WaitCtx", func(p *Proc, c *Comm) { irecv(c, 2).WaitCtx(context.Background()) }, send(2)},
		{"WaitDeadline", func(p *Proc, c *Comm) { irecv(c, 3).WaitDeadline(time.Minute) }, send(3)},
		{"WaitAll", func(p *Proc, c *Comm) { WaitAll(irecv(c, 4), irecv(c, 5)) },
			func(p *Proc, c *Comm) { send(4)(p, c); send(5)(p, c) }},
		{"WaitAny", func(p *Proc, c *Comm) { WaitAny(irecv(c, 6)) }, send(6)},
		{"WaitSome", func(p *Proc, c *Comm) { WaitSome(irecv(c, 7)) }, send(7)},
		{"Probe", func(p *Proc, c *Comm) { c.Probe(1, 8); c.RecvBytes(make([]byte, 1), 1, 8) }, send(8)},
		{"Barrier", func(p *Proc, c *Comm) { c.Barrier() }, func(p *Proc, c *Comm) { c.Barrier() }},
		{"Sendrecv", func(p *Proc, c *Comm) {
			c.Sendrecv([]byte{1}, 1, datatype.Byte, 1, 9, make([]byte, 1), 1, datatype.Byte, 1, 9)
		}, func(p *Proc, c *Comm) {
			c.Sendrecv([]byte{1}, 1, datatype.Byte, 0, 9, make([]byte, 1), 1, datatype.Byte, 0, 9)
		}},
	}
	for _, global := range []bool{false, true} {
		t.Run(fmt.Sprintf("globalLock=%v", global), func(t *testing.T) {
			reg := metrics.New()
			reg.Enable()
			run2(t, Config{Procs: 2, ProcsPerNode: 1, GlobalLock: global, Metrics: reg}, func(p *Proc) {
				comm := p.CommWorld()
				for _, c := range calls {
					comm.Barrier()
					if p.Rank() != 0 {
						if c.rank1 != nil {
							c.rank1(p, comm)
						}
						continue
					}
					before := waitCounter(reg, 0, "waits")
					c.rank0(p, comm)
					if waitCounter(reg, 0, "waits") == before {
						t.Errorf("%s did not go through Await", c.name)
					}
				}
				// WaitAny over two streams: only the second stream's
				// request can complete, so the wait has to progress both.
				s2 := p.StreamCreate()
				comm2 := comm.StreamComm(s2)
				if p.Rank() == 0 {
					never := comm.IrecvBytes(make([]byte, 1), 1, 99)
					before := waitCounter(reg, 0, "waits")
					if i, _ := WaitAny(never, comm2.IrecvBytes(make([]byte, 1), 1, 10)); i != 1 {
						t.Errorf("WaitAny returned index %d, want 1", i)
					}
					if waitCounter(reg, 0, "waits") == before {
						t.Error("two-stream WaitAny did not go through Await")
					}
					never.Cancel()
				} else {
					comm2.SendBytes([]byte{1}, 0, 10)
				}
				comm.Barrier()
				p.StreamFree(s2)
			})
			// Finalize ran inside run2: its Quiesce and finalize barrier
			// are waits of rank 1 as much as of rank 0.
			if waitCounter(reg, 1, "waits") == 0 {
				t.Error("rank 1 never waited")
			}
		})
	}
	// Finalize alone: a world whose ranks do nothing still waits in
	// Quiesce and the finalize barrier.
	reg := metrics.New()
	reg.Enable()
	run2(t, Config{Procs: 2, Metrics: reg}, func(*Proc) {})
	if waitCounter(reg, 0, "waits") == 0 {
		t.Error("Finalize did not go through Await")
	}
}

// TestTestSomeTestAllNoAlloc: polling a set of pending requests costs
// no allocation — the per-call stream set is gone.
func TestTestSomeTestAllNoAlloc(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		comm := p.CommWorld()
		reqs := make([]*Request, 8)
		for i := range reqs {
			reqs[i] = comm.IrecvBytes(make([]byte, 1), 0, 100+i)
		}
		if n := testing.AllocsPerRun(100, func() {
			if done := TestSome(reqs...); done != nil {
				panic("a never-matched receive completed")
			}
		}); n != 0 {
			t.Errorf("TestSome with nothing complete: %v allocs, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if TestAll(reqs...) {
				panic("never-matched receives all completed")
			}
		}); n != 0 {
			t.Errorf("TestAll with nothing complete: %v allocs, want 0", n)
		}
		for i, r := range reqs {
			comm.SendBytes([]byte{byte(i)}, 0, 100+i)
			r.Wait()
		}
		if done := TestSome(reqs...); len(done) != len(reqs) {
			t.Errorf("TestSome = %v after every receive matched", done)
		}
		if !TestAll(reqs...) {
			t.Error("TestAll false after every receive matched")
		}
	})
}

// TestWaitNoAlloc: the wait primitive's condition and pass closures
// stay on the stack — a blocking receive allocates what the same
// receive completed by an explicit progress loop allocates, and a
// WaitAny nothing more.
func TestWaitNoAlloc(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		comm := p.CommWorld()
		buf := make([]byte, 1)
		reqs := make([]*Request, 1)
		explicit := testing.AllocsPerRun(200, func() {
			r := comm.IrecvBytes(buf, 0, 1)
			comm.IsendBytes(buf, 0, 1)
			for !r.IsComplete() {
				p.Progress()
				// AllocsPerRun runs on one P and the message is in the
				// fabric dispatcher's hands: let it run.
				runtime.Gosched()
			}
		})
		wait := testing.AllocsPerRun(200, func() {
			r := comm.IrecvBytes(buf, 0, 1)
			comm.IsendBytes(buf, 0, 1)
			r.Wait()
		})
		waitAny := testing.AllocsPerRun(200, func() {
			reqs[0] = comm.IrecvBytes(buf, 0, 1)
			comm.IsendBytes(buf, 0, 1)
			WaitAny(reqs...)
		})
		if wait > explicit || waitAny > explicit {
			t.Errorf("allocs per receive: explicit loop %v, Wait %v, WaitAny %v", explicit, wait, waitAny)
		}
	})
}

// TestWaitSomeAdvancesPastCompleted: completed requests stay in the
// caller's slice, so the usual loop — call WaitSome until enough are
// done — hands finished requests back in. Each call must still advance
// the pending ones; a WaitSome that returned at once because something
// was already complete would spin here forever.
func TestWaitSomeAdvancesPastCompleted(t *testing.T) {
	run2(t, Config{ProcsPerNode: 1}, func(p *Proc) {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.SendBytes([]byte{0}, 1, 0)
			comm.RecvBytes(make([]byte, 1), 1, 9) // rank 1 has seen tag 0 complete
			comm.SendBytes([]byte{2}, 1, 2)
			return
		}
		reqs := []*Request{comm.IrecvBytes(make([]byte, 1), 0, 0), comm.IrecvBytes(make([]byte, 1), 0, 2)}
		if done := WaitSome(reqs...); len(done) != 1 || done[0] != 0 {
			t.Errorf("first WaitSome = %v, want [0]", done)
		}
		comm.SendBytes([]byte{9}, 0, 9)
		for len(WaitSome(reqs...)) < 2 {
		}
	})
}
