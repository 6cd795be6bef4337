package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/metrics"
	"gompix/internal/transport/tcp"
)

// tcpWorldsFail is tcpWorlds with transport failure knobs: it returns
// the networks too, so tests can kill or reset connections.
func tcpWorldsFail(t *testing.T, n int, cfg Config, tcfg tcp.Config) ([]*World, []*tcp.Network) {
	t.Helper()
	nets := make([]*tcp.Network, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		c := tcfg
		c.Rank = r
		c.WorldSize = n
		tn, err := tcp.New(c)
		if err != nil {
			t.Fatalf("tcp.New rank %d: %v", r, err)
		}
		nets[r] = tn
		addrs[r] = tn.Addr()
	}
	worlds := make([]*World, n)
	for r := 0; r < n; r++ {
		nets[r].SetPeerAddrs(addrs)
		c := cfg
		c.Procs = n
		c.Rank = r
		c.Transport = nets[r]
		worlds[r] = NewWorld(c)
	}
	return worlds, nets
}

// TestRemoteKillRank is the kill-a-rank chaos test: a 3-rank TCP job
// where one rank dies mid-flight (its transport is torn down abruptly,
// the in-process equivalent of SIGKILL). Every surviving rank's
// pending operation that depends on the victim — a posted receive, an
// AnySource receive, a rendezvous send, a collective — must complete
// with ErrProcFailed within the deadline: no hang, no panic. Traffic
// between the survivors keeps working before and after the failure.
func TestRemoteKillRank(t *testing.T) {
	const n = 3
	const victim = 2
	reg := metrics.New()
	reg.Enable()
	worlds, nets := tcpWorldsFail(t, n,
		Config{RndvThreshold: 4 << 10, Metrics: reg},
		chaosTCPConfig())

	var posted sync.WaitGroup // survivors have their pending ops in flight
	posted.Add(n - 1)
	killed := make(chan struct{}) // the victim's transport is gone
	park := make(chan struct{})   // the victim never progresses past this

	fail := make([]error, n) // per-survivor verdict, read after Wait
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == victim {
			// The victim rank parks inside its main function forever: it
			// accepted connections but will never send, progress, or
			// finalize. The goroutine (and its World) leak until the test
			// process exits, exactly like a SIGKILLed process.
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
				other := 1 - r

				// Sanity: survivors talk to each other pre-failure.
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

				// Pending operations that depend on the victim.
				pend := map[string]*Request{
					"posted recv":     comm.IrecvBytes(make([]byte, 16), victim, 7),
					"AnySource recv":  comm.IrecvBytes(make([]byte, 16), AnySource, 99),
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

				// Fresh operations toward the dead rank fail at initiation.
				if st := comm.IsendBytes([]byte("late"), victim, 11).Wait(); !errors.Is(st.Err, ErrProcFailed) {
					fail[r] = fmt.Errorf("post-verdict send: err = %v, want ErrProcFailed", st.Err)
					return
				}
				if st := comm.RecvBytes(make([]byte, 4), victim, 12); !errors.Is(st.Err, ErrProcFailed) {
					fail[r] = fmt.Errorf("post-verdict recv: err = %v, want ErrProcFailed", st.Err)
					return
				}

				// Survivor-to-survivor traffic still works.
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
	nets[victim].Kill() // abrupt death: connections reset with no goodbye, the listener vanishes
	close(killed)
	wg.Wait()

	for r, err := range fail {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if s := nets[r].Stats(); s.PeersDown != 1 {
			t.Errorf("rank %d: PeersDown = %d, want 1", r, s.PeersDown)
		}
		if got := reg.Counter(fmt.Sprintf("rank%d.vci0.nic.peer_down", r)).Load(); got != 1 {
			t.Errorf("rank%d.vci0.nic.peer_down = %d, want 1", r, got)
		}
	}
	if got := reg.Counter("tcp.peers_down").Load(); got != 2 {
		t.Errorf("tcp.peers_down = %d, want 2 (one verdict per survivor)", got)
	}
}

// TestRemoteConnectionLossIsVerdict: a connection lost under traffic
// is the peer's verdict on both ends. Rank 1 streams eager messages at
// rank 0, and rank 0 drops its connections to rank 1 a quarter of the
// way in. Whatever the sockets held then is gone, so a transport that
// reconnected instead would leave rank 0 waiting for a message that
// never comes. Each rank must instead count one verdict, rank 0's
// pending receive must fail with ErrProcFailed, and both must finish.
func TestRemoteConnectionLossIsVerdict(t *testing.T) {
	const total, dropAt, size, window = 25600, 6400, 200, 64
	worlds, nets := tcpWorldsFail(t, 2, Config{}, chaosTCPConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var received int
	var recvErr, sendErr error
	errs := make([]any, 2)
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func(r int, w *World) {
			defer wg.Done()
			defer func() { errs[r] = recover() }()
			w.Run(func(p *Proc) {
				comm := p.CommWorld()
				if r == 0 {
					buf := make([]byte, size)
					for ; received < total; received++ {
						if received == dropAt {
							nets[0].DropPeer(1)
						}
						if _, recvErr = comm.IrecvBytes(buf, 1, 0).WaitCtx(ctx); recvErr != nil {
							return
						}
					}
					return
				}
				msg := make([]byte, size)
				reqs := make([]*Request, 0, window)
				for sent := 0; sent < total && sendErr == nil; {
					reqs = reqs[:0]
					for ; len(reqs) < window && sent < total; sent++ {
						reqs = append(reqs, comm.IsendBytes(msg, 0, 0))
					}
					for _, req := range reqs {
						if _, err := req.WaitCtx(ctx); err != nil && sendErr == nil {
							sendErr = err
						}
					}
				}
			})
		}(r, w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(15 * time.Second):
		t.Fatal("ranks still running 15 s on: the lost connection ended in no verdict")
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	if !errors.Is(recvErr, ErrProcFailed) {
		t.Errorf("rank 0's receive %d ended with %v, want ErrProcFailed", received, recvErr)
	}
	// An eager send whose frame failed behind the verdict, or that was
	// posted after it, reports the verdict.
	if sendErr != nil && !errors.Is(sendErr, ErrProcFailed) {
		t.Errorf("rank 1's send ended with %v, want success or ErrProcFailed", sendErr)
	}
	for r, tn := range nets {
		if s := tn.Stats(); s.PeersDown != 1 {
			t.Errorf("rank %d: PeersDown = %d, want 1", r, s.PeersDown)
		}
	}
}
