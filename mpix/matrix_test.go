package mpix_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/transport"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/mpix"
)

// runMatrix executes fn on an n-rank world over each transport
// backend: the simulated fabric (all ranks in-process), TCP loopback
// (one World per rank, mirroring mpixrun's N processes), and — where
// the platform supports mmap — the node-aware composite with all ranks
// co-located, so every byte routes through the shared-memory leg.
func runMatrix(t *testing.T, n int, fn func(*mpix.Proc)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) {
		runWorld(t, mpix.Config{Procs: n, ProcsPerNode: 1}, fn)
	})
	t.Run("tcp", func(t *testing.T) {
		runTransports(t, n, fn, func(r int, addrs []string, trs []*mpix.TCPTransport) (transport.Transport, error) {
			return trs[r], nil
		})
	})
	t.Run("shm", func(t *testing.T) {
		if !shm.Supported() {
			t.Skip("shm transport not supported on this platform")
		}
		dir := t.TempDir()
		nodes := make([]int, n) // all ranks on node 0
		peersOf := func(r int) []int {
			var peers []int
			for p := 0; p < n; p++ {
				if p != r {
					peers = append(peers, p)
				}
			}
			return peers
		}
		runTransports(t, n, fn, func(r int, addrs []string, trs []*mpix.TCPTransport) (transport.Transport, error) {
			sn, err := shm.New(shm.Config{
				Rank: r, WorldSize: n, Epoch: 11, Dir: dir, Peers: peersOf(r),
				ProbeInterval: 500 * time.Microsecond,
			})
			if err != nil {
				return nil, err
			}
			return composite.New(composite.Config{Rank: r, WorldSize: n, NodeOf: nodes}, sn, trs[r])
		})
	})
}

// runTransports is the shared multiprocess-shaped harness behind the
// tcp and shm matrix legs: one TCP network per rank (the control/data
// baseline), wrapped per rank by wrap into the transport under test,
// then one World per rank run on its own goroutine.
func runTransports(t *testing.T, n int, fn func(*mpix.Proc),
	wrap func(r int, addrs []string, trs []*mpix.TCPTransport) (transport.Transport, error)) {
	t.Helper()
	trs := make([]*mpix.TCPTransport, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		tr, err := mpix.NewTCPTransport(mpix.TCPConfig{Rank: r, WorldSize: n})
		if err != nil {
			t.Fatalf("tcp transport rank %d: %v", r, err)
		}
		trs[r] = tr
		addrs[r] = tr.Addr()
	}
	// Build every world before starting any: a rank that starts running
	// can deliver frames to a peer whose World construction (codec
	// install) hasn't finished yet.
	worlds := make([]*mpix.World, n)
	for r := 0; r < n; r++ {
		trs[r].SetPeerAddrs(addrs)
		tr, err := wrap(r, addrs, trs)
		if err != nil {
			t.Fatalf("transport rank %d: %v", r, err)
		}
		worlds[r] = mpix.NewWorld(
			mpix.WithRanks(n),
			mpix.WithRank(r),
			mpix.WithTransport(tr),
		)
	}
	var wg sync.WaitGroup
	errs := make([]any, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(i int, w *mpix.World) {
			defer wg.Done()
			defer func() { errs[i] = recover() }()
			w.Run(fn)
		}(r, worlds[r])
	}
	wg.Wait()
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	// Sizes spanning buffered eager, signaled eager, and rendezvous;
	// exchanged with the other rank, then with the rank itself.
	sizes := []int{1, 512, 100 << 10}
	runMatrix(t, 2, func(p *mpix.Proc) {
		comm := p.CommWorld()
		for _, peer := range []int{1 - p.Rank(), p.Rank()} {
			for _, sz := range sizes {
				msg := bytes.Repeat([]byte{byte(sz)}, sz)
				got := make([]byte, sz)
				reqS := comm.IsendBytes(msg, peer, sz)
				reqR := comm.IrecvBytes(got, peer, sz)
				reqS.Wait()
				if st := reqR.Wait(); st.Err != nil {
					panic(fmt.Sprintf("peer %d size %d: %v", peer, sz, st.Err))
				}
				if !bytes.Equal(got, msg) {
					panic(fmt.Sprintf("peer %d size %d: corrupted", peer, sz))
				}
			}
		}
		comm.Barrier()
	})
}

func TestMatrixCollectivesAndComms(t *testing.T) {
	const n = 4
	runMatrix(t, n, func(p *mpix.Proc) {
		comm := p.CommWorld()
		// Allgather through the facade.
		mine := []byte{byte(p.Rank() * 3)}
		all := make([]byte, n)
		comm.Allgather(mine, 1, mpix.Byte, all)
		for r := 0; r < n; r++ {
			if all[r] != byte(r*3) {
				panic(fmt.Sprintf("allgather[%d] = %d", r, all[r]))
			}
		}
		// Derived communicator round-trip.
		half := comm.Split(p.Rank()/2, p.Rank())
		peer := 1 - half.Rank()
		msg := []byte{byte(p.Rank())}
		got := make([]byte, 1)
		reqS := half.IsendBytes(msg, peer, 0)
		reqR := half.IrecvBytes(got, peer, 0)
		reqS.Wait()
		reqR.Wait()
		if got[0] != byte(half.WorldRank(peer)) {
			panic(fmt.Sprintf("split pt2pt got %d", got[0]))
		}
		comm.Barrier()
	})
}

func TestMatrixStreamComm(t *testing.T) {
	runMatrix(t, 2, func(p *mpix.Proc) {
		s := p.StreamCreate(mpix.WithName("matrix"))
		sc := p.CommWorld().StreamComm(s)
		peer := 1 - p.Rank()
		msg := []byte{byte(7 + p.Rank())}
		got := make([]byte, 1)
		reqS := sc.IsendBytes(msg, peer, 1)
		reqR := sc.IrecvBytes(got, peer, 1)
		reqS.Wait()
		reqR.Wait()
		if got[0] != byte(7+peer) {
			panic(fmt.Sprintf("streamcomm got %d", got[0]))
		}
		sc.Barrier()
	})
}

// TestMatrixContinuations is the continuation conformance run: on
// every transport, each rank drives a window of recv→send echo chains
// purely from callbacks (client side uses Done channels), then checks
// set-aggregation delivers per-operation statuses.
func TestMatrixContinuations(t *testing.T) {
	const chains = 8
	const rounds = 3
	runMatrix(t, 2, func(p *mpix.Proc) {
		comm := p.CommWorld()
		peer := 1 - p.Rank()
		if p.Rank() == 0 {
			// Server: every chain re-arms itself from its callback;
			// nothing blocks until the final drain.
			cr := p.ContinueInit()
			var done atomic.Int64
			for c := 0; c < chains; c++ {
				c := c
				buf := make([]byte, 8)
				round := 0
				var arm func()
				arm = func() {
					req := comm.IrecvBytes(buf, peer, c)
					cr.Continue(req, func(s mpix.Status) {
						if s.Err != nil {
							panic(fmt.Sprintf("chain %d: %v", c, s.Err))
						}
						cr.Continue(comm.IsendBytes(buf, peer, c), func(s mpix.Status) {
							if s.Err != nil {
								panic(fmt.Sprintf("chain %d echo: %v", c, s.Err))
							}
							round++
							if round < rounds {
								arm()
							} else {
								done.Add(1)
							}
						})
					})
				}
				arm()
			}
			cr.Start()
			for done.Load() != chains {
				p.Progress()
			}
			cr.Request().Wait()
		} else {
			// Client: plain request pairs, completion observed through
			// Done channels while a progress thread drives the rank.
			stop := p.ProgressThread(nil)
			for round := 0; round < rounds; round++ {
				for c := 0; c < chains; c++ {
					msg := []byte{byte(round), byte(c), 2, 3, 4, 5, 6, 7}
					sD := comm.IsendBytes(msg, peer, c).Done()
					echo := make([]byte, 8)
					rD := comm.IrecvBytes(echo, peer, c).Done()
					<-sD
					if st := <-rD; st.Err != nil || st.Bytes != 8 {
						panic(fmt.Sprintf("round %d chain %d: %+v", round, c, st))
					}
					if !bytes.Equal(echo, msg) {
						panic(fmt.Sprintf("round %d chain %d: echo corrupted", round, c))
					}
				}
			}
			stop()
		}
		// Set aggregation: ContinueAll fires once with every status.
		cr := p.ContinueInit()
		var reqs []*mpix.Request
		for i := 0; i < 4; i++ {
			if p.Rank() == 0 {
				reqs = append(reqs, comm.IsendBytes([]byte{byte(i)}, peer, 100+i))
			} else {
				reqs = append(reqs, comm.IrecvBytes(make([]byte, 1), peer, 100+i))
			}
		}
		var got []mpix.Status
		cr.ContinueAll(reqs, func(sts []mpix.Status) { got = sts })
		cr.Start()
		if st := cr.Wait(); st.Err != nil {
			panic(fmt.Sprintf("aggregate err: %v", st.Err))
		}
		if len(got) != 4 {
			panic(fmt.Sprintf("set statuses: %d", len(got)))
		}
		for i, s := range got {
			if s.Err != nil || (p.Rank() == 1 && s.Tag != 100+i) {
				panic(fmt.Sprintf("set status %d: %+v", i, s))
			}
		}
		comm.Barrier()
	})
}

// TestMatrixContinueRevoked: on every transport, a continuation parked
// on a revoked communicator's receive fires with ErrCommRevoked.
func TestMatrixContinueRevoked(t *testing.T) {
	runMatrix(t, 2, func(p *mpix.Proc) {
		dup := p.CommWorld().Dup()
		cr := p.ContinueInit()
		var st atomic.Pointer[mpix.Status]
		pending := dup.IrecvBytes(make([]byte, 8), 1-p.Rank(), 77)
		cr.Continue(pending, func(s mpix.Status) { st.Store(&s) })
		cr.Start()
		if p.Rank() == 0 {
			dup.Revoke()
		}
		cr.Wait()
		s := st.Load()
		if s == nil || !errors.Is(s.Err, mpix.ErrCommRevoked) {
			panic(fmt.Sprintf("rank %d: continuation err = %v, want ErrCommRevoked", p.Rank(), s))
		}
		p.CommWorld().Barrier()
	})
}

func TestMatrixWaitCtx(t *testing.T) {
	runMatrix(t, 2, func(p *mpix.Proc) {
		comm := p.CommWorld()
		peer := 1 - p.Rank()
		// A receive with no matching send yet: WaitCtx must return the
		// context error with the request still pending.
		orphan := comm.IrecvBytes(make([]byte, 4), peer, 99)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		if _, err := orphan.WaitCtx(ctx); err != context.DeadlineExceeded {
			panic(fmt.Sprintf("orphan WaitCtx err = %v", err))
		}
		cancel()
		// Both ranks have observed the timeout; only now may the
		// matching sends be issued.
		comm.Barrier()
		// Now send the match; WaitCtx with a live context completes.
		reqS := comm.IsendBytes([]byte{1, 2, 3, 4}, peer, 99)
		if st, err := orphan.WaitCtx(context.Background()); err != nil || st.Bytes != 4 {
			panic(fmt.Sprintf("matched WaitCtx st=%+v err=%v", st, err))
		}
		reqS.Wait()
		comm.Barrier()
	})
}

// TestMatrixRelaxedAllreduce runs the relaxed (solo/partial) allreduce
// across the sim/tcp/shm matrix: a full-quorum round reduces exactly,
// and a straggled round settles on the quorum after the staleness
// grace with a result provably consistent with its Contributed bitmap.
// The kill-a-rank leg below (tcp only — it needs the raw networks to
// sever) asserts ErrProcFailed surfaces in the round status while
// training keeps completing on the survivors.
func TestMatrixRelaxedAllreduce(t *testing.T) {
	const n = 4
	step := func(p *mpix.Proc, opt mpix.RelaxedOptions) (*mpix.RelaxedRequest, []byte) {
		in := mpix.EncodeInt32s([]int32{int32(p.Rank() + 1)})
		out := make([]byte, len(in))
		return p.CommWorld().IallreduceRelaxed(in, out, 1, mpix.Int32, mpix.OpSum, opt), out
	}
	runMatrix(t, n, func(p *mpix.Proc) {
		// Round 1: full participation, exact allreduce.
		rr, out := step(p, mpix.RelaxedOptions{})
		if st := rr.Wait(); st.Err != nil {
			panic(fmt.Sprintf("rank %d full round: %v", p.Rank(), st.Err))
		}
		if got := mpix.DecodeInt32s(out)[0]; got != n*(n+1)/2 || rr.Result().Contributions != n {
			panic(fmt.Sprintf("rank %d full round: sum=%d result=%+v", p.Rank(), got, *rr.Result()))
		}
		// Round 2: rank n-1 straggles; the rest settle on quorum n-1
		// with a sum matching exactly the bitmap's marked ranks.
		if p.Rank() == n-1 {
			time.Sleep(100 * time.Millisecond)
		}
		rr, out = step(p, mpix.RelaxedOptions{Quorum: n - 1, Staleness: time.Millisecond})
		if st := rr.Wait(); st.Err != nil {
			panic(fmt.Sprintf("rank %d straggled round: %v", p.Rank(), st.Err))
		}
		res := rr.Result()
		want := int32(0)
		for i := 0; i < n; i++ {
			if res.Contributed.Has(i) {
				want += int32(i + 1)
			}
		}
		if got := mpix.DecodeInt32s(out)[0]; got != want || res.Contributions < n-1 {
			panic(fmt.Sprintf("rank %d straggled round: sum=%d (bitmap says %d) result=%+v",
				p.Rank(), got, want, *res))
		}
		p.CommWorld().Barrier()
	})

	t.Run("tcpkill", func(t *testing.T) {
		const victim = n - 1
		trs := make([]*mpix.TCPTransport, n)
		addrs := make([]string, n)
		for r := 0; r < n; r++ {
			tr, err := mpix.NewTCPTransport(mpix.TCPConfig{Rank: r, WorldSize: n})
			if err != nil {
				t.Fatalf("tcp transport rank %d: %v", r, err)
			}
			trs[r] = tr
			addrs[r] = tr.Addr()
		}
		worlds := make([]*mpix.World, n)
		for r := 0; r < n; r++ {
			trs[r].SetPeerAddrs(addrs)
			worlds[r] = mpix.NewWorld(
				mpix.WithRanks(n),
				mpix.WithRank(r),
				mpix.WithTransport(trs[r]),
			)
		}
		// No staleness bound: only the failure verdict can settle the
		// victim round — a hang here means the fault path is broken.
		opt := mpix.RelaxedOptions{Staleness: -1}
		var posted sync.WaitGroup
		posted.Add(n - 1)
		killed := make(chan struct{})
		park := make(chan struct{})
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			if r == victim {
				// The victim contributes one round, then parks until
				// after the kill (the goroutine leaks, like a real
				// SIGKILL mid-job).
				go worlds[victim].Run(func(p *mpix.Proc) {
					rr, _ := step(p, opt)
					rr.Wait()
					<-park
				})
				continue
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					if e := recover(); e != nil {
						errs[r] = fmt.Errorf("rank %d panicked: %v", r, e)
					}
				}()
				worlds[r].Run(func(p *mpix.Proc) {
					rr, _ := step(p, opt)
					if st := rr.Wait(); st.Err != nil || rr.Result().Contributions != n {
						errs[r] = fmt.Errorf("rank %d warmup: err=%v result=%+v", r, st.Err, *rr.Result())
						return
					}
					rr, _ = step(p, opt) // victim is parked: blocks until the kill
					posted.Done()
					<-killed
					if st := rr.Wait(); st.Err != nil {
						errs[r] = fmt.Errorf("rank %d kill round aborted: %v", r, st.Err)
						return
					}
					res := rr.Result()
					if !errors.Is(res.Err, mpix.ErrProcFailed) || res.Contributed.Has(victim) {
						errs[r] = fmt.Errorf("rank %d kill round result %+v, want ErrProcFailed sans victim", r, *res)
						return
					}
					// Training continues on the survivors.
					for round := 0; round < 2; round++ {
						rr, out := step(p, opt)
						if st := rr.Wait(); st.Err != nil || rr.Result().Contributions != n-1 {
							errs[r] = fmt.Errorf("rank %d survivor round %d: err=%v result=%+v",
								r, round, st.Err, *rr.Result())
							return
						}
						if got := mpix.DecodeInt32s(out)[0]; got != 1+2+3 {
							errs[r] = fmt.Errorf("rank %d survivor round %d: sum %d", r, round, got)
							return
						}
					}
				})
			}(r)
		}
		posted.Wait()
		trs[victim].Kill()
		close(killed)
		close(park)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Errorf("%v", err)
			}
		}
	})
}
