package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/metrics"
	"gompix/internal/reduceop"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
)

// compositeWorlds builds an n-rank multiprocess-mode job over the
// node-aware composite transport inside one test process: each rank
// gets a TCP network plus — when nodes co-locates it with peers — an
// shm network over one shared segment directory, composed exactly as
// mpix.NewWorldFromEnv wires them across OS processes.
func compositeWorlds(t *testing.T, n int, nodes []int, cfg Config, tcfg tcp.Config) ([]*World, []*composite.Network) {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	dir := t.TempDir()
	tcps := make([]*tcp.Network, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		c := tcfg
		c.Rank, c.WorldSize = r, n
		tn, err := tcp.New(c)
		if err != nil {
			t.Fatalf("tcp.New rank %d: %v", r, err)
		}
		tcps[r] = tn
		addrs[r] = tn.Addr()
	}
	comps := make([]*composite.Network, n)
	worlds := make([]*World, n)
	for r := 0; r < n; r++ {
		tcps[r].SetPeerAddrs(addrs)
		var peers []int
		for p := 0; p < n; p++ {
			if p != r && nodes[p] == nodes[r] {
				peers = append(peers, p)
			}
		}
		var local composite.Leg
		if len(peers) > 0 {
			sn, err := shm.New(shm.Config{
				Rank: r, WorldSize: n, Epoch: 11, Dir: dir, Peers: peers,
				ProbeInterval: 500 * time.Microsecond,
			})
			if err != nil {
				t.Fatalf("shm.New rank %d: %v", r, err)
			}
			local = sn
		}
		cn, err := composite.New(composite.Config{Rank: r, WorldSize: n, NodeOf: nodes}, local, tcps[r])
		if err != nil {
			t.Fatalf("composite.New rank %d: %v", r, err)
		}
		comps[r] = cn
		c := cfg
		c.Procs = n
		c.Rank = r
		c.Transport = cn
		worlds[r] = NewWorld(c)
	}
	return worlds, comps
}

// spoilProbes makes every shm leg's probe record name the wrong magic:
// the job's same-node rendezvous run over the rings (CTS and chunks), as
// on a host that refuses cross-memory reads.
func spoilProbes(comps []*composite.Network) {
	for _, cn := range comps {
		if sn, ok := cn.Local().(*shm.Network); ok {
			sn.SpoilProbe()
		}
	}
}

// TestRemoteCompositePingPong exchanges every message mode between a
// same-node pair (shm leg) and a cross-node pair (TCP leg) behind one
// transport, then verifies the intra-node bytes really took shared
// memory.
func TestRemoteCompositePingPong(t *testing.T) {
	nodes := []int{0, 0, 1}
	worlds, comps := compositeWorlds(t, 3, nodes, Config{
		RndvThreshold: 4 << 10,
		PipelineChunk: 16 << 10,
	}, tcp.Config{})
	sizes := []int{1, 200, 8 << 10, 96 << 10}
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		for _, peer := range []int{1, 2} { // 0↔1 intra-node, 0↔2 inter-node
			for _, sz := range sizes {
				msg := bytes.Repeat([]byte{byte(sz % 251)}, sz)
				switch p.Rank() {
				case 0:
					comm.SendBytes(msg, peer, sz)
					got := make([]byte, sz)
					if st := comm.RecvBytes(got, peer, sz); st.Err != nil {
						panic(fmt.Sprintf("recv %d from %d: %v", sz, peer, st.Err))
					}
					if !bytes.Equal(got, msg) {
						panic(fmt.Sprintf("size %d via %d: payload corrupted", sz, peer))
					}
				case peer:
					got := make([]byte, sz)
					if st := comm.RecvBytes(got, 0, sz); st.Err != nil {
						panic(fmt.Sprintf("recv %d: %v", sz, st.Err))
					}
					comm.SendBytes(got, 0, sz)
				}
			}
		}
	})
	sn, ok := comps[0].Local().(*shm.Network)
	if !ok {
		t.Fatal("rank 0 has no shm leg")
	}
	if sn.Stats().TxChunks == 0 {
		t.Error("intra-node traffic never touched the shm leg")
	}
}

// TestRemoteCompositeMetricsReachLegs: Config.Metrics wires a link by
// probing it for UseMetrics, and the router has to pass that on — the
// tcp leg's writev counter must move when cross-node traffic flows, the
// shm leg's doorbell counters when same-node traffic does.
func TestRemoteCompositeMetricsReachLegs(t *testing.T) {
	reg := metrics.New()
	reg.Enable()
	worlds, _ := compositeWorlds(t, 3, []int{0, 0, 1}, Config{Metrics: reg}, tcp.Config{})
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		switch p.Rank() {
		case 0:
			comm.SendBytes([]byte("across the tcp leg"), 2, 1)
			comm.SendBytes([]byte("across the rings"), 1, 1)
		case 1:
			comm.RecvBytes(make([]byte, 32), 0, 1)
		case 2:
			comm.RecvBytes(make([]byte, 32), 0, 1)
		}
	})
	snap := reg.Snapshot()
	if got := snap.Counter("tcp.tx.writev"); got == 0 {
		t.Error("tcp.tx.writev stayed at zero under the composite router")
	}
	// Every publish into an empty ring either rings the consumer or is
	// counted as suppressed; the world barrier alone publishes several.
	if snap.Counter("shm.bells_rung")+snap.Counter("shm.bells_suppressed") == 0 {
		t.Error("the shm leg's doorbell counters stayed at zero under the composite router")
	}
	if snap.Counter("rank0.core.wait.waits") == 0 {
		t.Error("rank 0's wait counters stayed at zero")
	}
}

// TestRemoteCompositeLargeMessageAllocs is the large-message companion
// of the shm transport's TestShmSteadyStateAllocs: once pools are warm,
// a 1 MiB rendezvous between two ranks on the shm leg — sender and
// receiver side together — allocates no payload-sized memory. The send
// goes out of the user's buffer (no private copy, no encoded copy of
// the chunks), the receive's chunks land in the user's buffer; what is
// left is requests, headers and send state. Before, each message cost
// 2 MiB of fresh heap.
func TestRemoteCompositeLargeMessageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in non-race passes")
	}
	const size, warm, runs, budget = 1 << 20, 20, 50, 64 << 10
	worlds, _ := compositeWorlds(t, 2, []int{0, 0}, Config{}, tcp.Config{})
	var perMsg uint64
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		msg, ack := make([]byte, size), make([]byte, 1)
		exchange := func(n int) {
			for i := 0; i < n; i++ {
				if p.Rank() == 0 {
					comm.SendBytes(msg, 1, 1)
					comm.RecvBytes(ack, 1, 2)
				} else {
					comm.RecvBytes(msg, 0, 1)
					comm.SendBytes(ack, 0, 2)
				}
			}
		}
		exchange(warm)
		comm.Barrier()
		var before, after runtime.MemStats
		if p.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		exchange(runs)
		if p.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perMsg = (after.TotalAlloc - before.TotalAlloc) / runs
		}
		comm.Barrier()
	})
	if perMsg > budget {
		t.Fatalf("a 1 MiB message allocates %d bytes in steady state, want at most %d", perMsg, budget)
	}
	t.Logf("%d bytes allocated per 1 MiB message", perMsg)
}

// TestEagerSteadyStateAllocs bounds what 8 B eager traffic allocates
// once pools are warm, sender and receiver together, counted
// process-wide while the two ranks stream windows of 64 messages and a
// one-byte ack per window (the small-tcp and small-shm benchmark
// traffic). What is left per message is the two requests and the
// receiver's copy of the payload out of the transport's buffer; the
// window's ack and WaitAll add about 0.1. The sender's header goes back
// to the pool once the post returns, the receiver's once it is handled:
// before the sender recycled its header, both worlds read 4.1. The sim
// world runs both ranks in one process over the simulated fabric, whose
// packets and send completions allocate nothing of their own.
func TestEagerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in non-race passes")
	}
	const size, window, warm, runs, budget = 8, 64, 20, 50, 3.2
	for _, tc := range []struct {
		name   string
		worlds func(t *testing.T) []*World
	}{
		{"tcp", func(t *testing.T) []*World { return tcpWorlds(t, 2, Config{}) }},
		{"shm", func(t *testing.T) []*World { return shmWorlds(t, 2, Config{}) }},
		{"sim", func(t *testing.T) []*World { return []*World{NewWorld(Config{Procs: 2})} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var perMsg float64
			runRemote(t, tc.worlds(t), func(p *Proc) {
				comm := p.CommWorld()
				bufs := make([][]byte, window)
				for i := range bufs {
					bufs[i] = make([]byte, size)
				}
				reqs, ack := make([]*Request, window), make([]byte, 1)
				exchange := func(n int) {
					for i := 0; i < n; i++ {
						if p.Rank() == 0 {
							for m := range reqs {
								reqs[m] = comm.IsendBytes(bufs[m], 1, 1)
							}
							WaitAll(reqs...)
							comm.RecvBytes(ack, 1, 2)
						} else {
							for m := range reqs {
								reqs[m] = comm.IrecvBytes(bufs[m], 0, 1)
							}
							WaitAll(reqs...)
							comm.SendBytes(ack, 0, 2)
						}
					}
				}
				exchange(warm)
				comm.Barrier()
				var before, after runtime.MemStats
				if p.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				exchange(runs)
				if p.Rank() == 0 {
					runtime.ReadMemStats(&after)
					perMsg = float64(after.Mallocs-before.Mallocs) / (runs * window)
				}
				comm.Barrier()
			})
			if perMsg > budget {
				t.Fatalf("an 8 B message allocates %.2f objects in steady state, want at most %v", perMsg, budget)
			}
			t.Logf("%.2f allocations per 8 B message", perMsg)
		})
	}
}

// TestAllreduceSteadyStateAllocs bounds what a small Allreduce
// allocates once its plan is cached: a 1-float64 Allreduce on the
// composite 2×2 world (shm inside a node, tcp across, the two-level
// algorithm — the coll-2x2 benchmark's latency shape) allocates at most
// 16 objects per rank per call, counted process-wide while all four
// ranks run in lockstep. What is left is the call's request and the
// requests, headers and send state of its point-to-point operations;
// rebuilding the schedule per call cost more than twice that.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in non-race passes")
	}
	const n, warm, runs, budget = 4, 50, 200, 16
	worlds, _ := compositeWorlds(t, n, []int{0, 0, 1, 1}, Config{}, tcp.Config{})
	var perCall float64
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		in, out := reduceop.EncodeFloat64s([]float64{float64(p.Rank())}), make([]byte, 8)
		call := func() { comm.Allreduce(in, out, 1, datatype.Float64, reduceop.Sum) }
		for i := 0; i < warm; i++ {
			call()
		}
		comm.Barrier()
		if p.Rank() == 0 {
			// AllocsPerRun makes one unmeasured call, then runs measured.
			perCall = testing.AllocsPerRun(runs, call)
		} else {
			for i := 0; i < runs+1; i++ {
				call()
			}
		}
		comm.Barrier()
		if got := reduceop.DecodeFloat64s(out)[0]; got != 0+1+2+3 {
			panic(fmt.Sprintf("rank %d: allreduce got %v", p.Rank(), got))
		}
	})
	if perRank := perCall / n; perRank > budget {
		t.Fatalf("a 1-float64 Allreduce allocates %.1f objects per rank per call, want at most %d", perRank, budget)
	} else {
		t.Logf("%.1f allocations per rank per call (%.0f per allreduce)", perRank, perCall)
	}
}

// TestRemoteCompositeHierCollectives runs the rooted collectives on a
// 2-node/4-rank composite job and checks both the results and that the
// topology actually selected the hierarchical algorithms.
func TestRemoteCompositeHierCollectives(t *testing.T) {
	const n = 4
	nodes := []int{0, 0, 1, 1}
	worlds, comps := compositeWorlds(t, n, nodes, Config{}, tcp.Config{})
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		if comm.hier() == nil {
			panic("placement-aware transport did not enable hierarchical collectives")
		}
		comm.Barrier()

		buf := []byte{0, 0}
		if p.Rank() == 1 {
			buf = []byte{42, 17}
		}
		comm.Bcast(buf, 2, datatype.Byte, 1)
		if buf[0] != 42 || buf[1] != 17 {
			panic(fmt.Sprintf("rank %d: bcast got %v", p.Rank(), buf))
		}

		mine := []byte{byte(p.Rank() + 1)}
		sum := make([]byte, 1)
		comm.Reduce(mine, sum, 1, datatype.Byte, reduceop.Sum, 2)
		if p.Rank() == 2 && sum[0] != 1+2+3+4 {
			panic(fmt.Sprintf("reduce got %d", sum[0]))
		}

		all := make([]byte, 1)
		comm.Allreduce(mine, all, 1, datatype.Byte, reduceop.Sum)
		if all[0] != 1+2+3+4 {
			panic(fmt.Sprintf("rank %d: allreduce got %d", p.Rank(), all[0]))
		}
		comm.Barrier()
	})
	for r := 0; r < n; r++ {
		sn := comps[r].Local().(*shm.Network)
		if sn.Stats().TxChunks == 0 {
			t.Errorf("rank %d: collectives never used the shm leg", r)
		}
	}
}

// TestRemoteCompositeKillRank is the kill-a-rank chaos test over the
// composite transport: the victim shares a node with one survivor (who
// learns of the death through the shm flock probe) while the other
// survivor sits on a different node (TCP loss detection). Both must
// reach the same ErrProcFailed semantics the TCP-only job guarantees —
// pending ops fail, fresh ops toward the dead rank fail at initiation,
// survivor traffic keeps flowing — with exactly one verdict each
// despite two legs observing the death.
func TestRemoteCompositeKillRank(t *testing.T) {
	const n = 3
	const victim = 1
	nodes := []int{0, 0, 1} // victim 1 co-located with rank 0
	worlds, comps := compositeWorlds(t, n,
		nodes,
		Config{RndvThreshold: 4 << 10},
		tcp.Config{DialTimeout: 2 * time.Second})

	var posted sync.WaitGroup
	posted.Add(n - 1)
	killed := make(chan struct{})
	park := make(chan struct{})

	fail := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == victim {
			go worlds[victim].Run(func(p *Proc) { <-park })
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					fail[r] = fmt.Errorf("rank %d panicked: %v", r, e)
				}
			}()
			worlds[r].Run(func(p *Proc) {
				comm := p.CommWorld()
				other := 2 - r // the other survivor (0↔2, a cross-node pair)

				sr := comm.IsendBytes([]byte("hi"), other, 1)
				rr := comm.IrecvBytes(make([]byte, 2), other, 1)
				if st := sr.Wait(); st.Err != nil {
					fail[r] = fmt.Errorf("pre-failure send: %v", st.Err)
					return
				}
				if st := rr.Wait(); st.Err != nil {
					fail[r] = fmt.Errorf("pre-failure recv: %v", st.Err)
					return
				}

				pend := map[string]*Request{
					"posted recv":     comm.IrecvBytes(make([]byte, 16), victim, 7),
					"rendezvous send": comm.Isend(make([]byte, 32<<10), 32<<10, datatype.Byte, victim, 8),
					"barrier":         comm.Ibarrier(),
				}
				posted.Done()
				<-killed

				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				for name, req := range pend {
					if _, err := req.WaitCtx(ctx); !errors.Is(err, ErrProcFailed) {
						fail[r] = fmt.Errorf("%s: err = %v, want ErrProcFailed", name, err)
						return
					}
				}

				if st := comm.IsendBytes([]byte("late"), victim, 11).Wait(); !errors.Is(st.Err, ErrProcFailed) {
					fail[r] = fmt.Errorf("post-verdict send: err = %v, want ErrProcFailed", st.Err)
					return
				}

				sr = comm.IsendBytes([]byte("ok"), other, 2)
				rr = comm.IrecvBytes(make([]byte, 2), other, 2)
				if st := sr.Wait(); st.Err != nil {
					fail[r] = fmt.Errorf("post-failure send: %v", st.Err)
					return
				}
				if st := rr.Wait(); st.Err != nil {
					fail[r] = fmt.Errorf("post-failure recv: %v", st.Err)
				}
			})
		}(r)
	}

	posted.Wait()
	comps[victim].Kill() // both legs die: rings freeze, flock releases, connections reset
	close(killed)
	wg.Wait()

	for r, err := range fail {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	// The co-located survivor's shm leg must have reached its own
	// verdict (the flock probe), independent of TCP's.
	if sn := comps[0].Local().(*shm.Network); sn.Stats().PeersDown != 1 {
		t.Errorf("survivor shm leg PeersDown = %d, want 1", sn.Stats().PeersDown)
	}
}
