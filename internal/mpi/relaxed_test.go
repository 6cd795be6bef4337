package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/reduceop"
	"gompix/internal/transport/tcp"
)

// relaxedStep runs one relaxed allreduce of (rank+1) and returns the
// request plus the output buffer.
func relaxedStep(p *Proc, opt RelaxedOptions) (*RelaxedRequest, []byte) {
	comm := p.CommWorld()
	in := reduceop.EncodeInt32s([]int32{int32(p.Rank() + 1)})
	out := make([]byte, len(in))
	return comm.IallreduceRelaxed(in, out, 1, datatype.Int32, reduceop.Sum, opt), out
}

// bitmapSum is the sum the Contributed bitmap promises for rank+1
// contributions.
func bitmapSum(rr *RelaxedRequest) int32 {
	var s int32
	for i := 0; i < len(rr.Result().Contributed)*64; i++ {
		if rr.Result().Contributed.Has(i) {
			s += int32(i + 1)
		}
	}
	return s
}

// TestRelaxedAllreduceFullSim: with full quorum and no stragglers the
// relaxed allreduce degenerates to an exact allreduce on every size.
func TestRelaxedAllreduceFullSim(t *testing.T) {
	runColl(t, []int{1, 2, 4, 5}, func(p *Proc) {
		n := p.CommWorld().Size()
		for round := 0; round < 3; round++ {
			rr, out := relaxedStep(p, RelaxedOptions{})
			if st := rr.Wait(); st.Err != nil {
				t.Errorf("rank %d round %d: err %v", p.Rank(), round, st.Err)
				return
			}
			res := rr.Result()
			if res.Contributions != n || res.Contributed.Count() != n || res.Abandoned != 0 || res.Err != nil {
				t.Errorf("rank %d round %d: result %+v", p.Rank(), round, *res)
			}
			if got := reduceop.DecodeInt32s(out)[0]; got != int32(n*(n+1)/2) {
				t.Errorf("rank %d round %d: sum %d, want %d", p.Rank(), round, got, n*(n+1)/2)
			}
		}
	})
}

// TestRelaxedAllreduceStragglerSim: rank 3 starts late; the fast ranks
// settle on the 3-rank quorum after the staleness grace, abandon the
// straggler, and report a sum exactly consistent with the Contributed
// bitmap. The straggler itself still completes (its peers' sends are
// waiting in its unexpected queue), and the fast ranks' reorder
// windows fully drain once the late contribution lands.
func TestRelaxedAllreduceStragglerSim(t *testing.T) {
	run2(t, Config{Procs: 4}, func(p *Proc) {
		opt := RelaxedOptions{Quorum: 3, Staleness: time.Millisecond}
		if p.Rank() == 3 {
			time.Sleep(150 * time.Millisecond)
		}
		rr, out := relaxedStep(p, opt)
		if st := rr.Wait(); st.Err != nil {
			t.Errorf("rank %d: err %v", p.Rank(), st.Err)
			return
		}
		res := rr.Result()
		if got := reduceop.DecodeInt32s(out)[0]; got != bitmapSum(rr) {
			t.Errorf("rank %d: sum %d inconsistent with bitmap (want %d)", p.Rank(), got, bitmapSum(rr))
		}
		if res.Contributions < 3 || !res.Contributed.Has(p.Rank()) || res.Err != nil {
			t.Errorf("rank %d: result %+v", p.Rank(), *res)
		}
		if p.Rank() != 3 && res.Contributed.Has(3) {
			t.Errorf("rank %d: straggler contributed before it even started", p.Rank())
		}
		// The adopted straggler receive must drain once rank 3's send
		// arrives: the window empties and the frontier advances.
		win := p.CommWorld().relaxedWin()
		for end := time.Now().Add(10 * time.Second); ; {
			win.mu.Lock()
			drained := len(win.rounds) == 0 && win.frontier == win.seq
			win.mu.Unlock()
			if drained {
				break
			}
			if time.Now().After(end) {
				t.Errorf("rank %d: reorder window never drained", p.Rank())
				return
			}
			p.Progress()
		}
		p.CommWorld().Barrier()
	})
}

// TestRelaxedLagGate: with MaxLag 1 a rank may run at most one round
// past its oldest unresolved round. Rank 3 parks after round 0, so the
// fast ranks settle round 1 without it (leaving an adopted receive
// outstanding) and their round 2 must NOT issue — a broken gate would
// let it settle by quorum among the fast ranks — until rank 3 resumes
// and its round-1 contribution drains the window.
func TestRelaxedLagGate(t *testing.T) {
	resume := make(chan struct{})
	var gated sync.WaitGroup
	gated.Add(3)
	var once sync.Once
	run2(t, Config{Procs: 4}, func(p *Proc) {
		opt := RelaxedOptions{Quorum: 3, Staleness: time.Millisecond, MaxLag: 1}
		if p.Rank() == 3 {
			rr, _ := relaxedStep(p, opt) // round 0
			rr.Wait()
			<-resume
			for round := 1; round <= 2; round++ {
				rr, _ := relaxedStep(p, opt)
				if st := rr.Wait(); st.Err != nil {
					t.Errorf("rank 3 round %d: err %v", round, st.Err)
				}
			}
			return
		}
		r0, _ := relaxedStep(p, opt) // round 0: full participation
		r0.Wait()
		r1, _ := relaxedStep(p, opt) // round 1: settles stale without rank 3
		if st := r1.Wait(); st.Err != nil {
			t.Errorf("rank %d round 1: err %v", p.Rank(), st.Err)
		}
		if r1.Result().Contributed.Has(3) {
			t.Errorf("rank %d round 1: parked rank contributed", p.Rank())
		}
		r2, _ := relaxedStep(p, opt) // round 2: gated behind round 1's straggler
		for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
			p.Progress()
		}
		if r2.IsComplete() {
			t.Errorf("rank %d: round 2 completed while lag-gated", p.Rank())
		}
		gated.Done()
		once.Do(func() {
			go func() {
				gated.Wait()
				close(resume)
			}()
		})
		if st := r2.Wait(); st.Err != nil {
			t.Errorf("rank %d round 2: err %v", p.Rank(), st.Err)
		}
	})
}

// TestRelaxedRevoked: a revoked communicator rejects new relaxed
// rounds at initiation and aborts in-flight ones — the one failure
// that does condemn a relaxed round.
func TestRelaxedRevoked(t *testing.T) {
	run2(t, Config{Procs: 2}, func(p *Proc) {
		dup := p.CommWorld().Dup()
		if p.Rank() == 0 {
			dup.Revoke()
			in := reduceop.EncodeInt32s([]int32{1})
			out := make([]byte, len(in))
			rr := dup.IallreduceRelaxed(in, out, 1, datatype.Int32, reduceop.Sum, RelaxedOptions{})
			if st := rr.Wait(); !errors.Is(st.Err, ErrCommRevoked) {
				t.Errorf("post-revoke round err = %v, want ErrCommRevoked", st.Err)
			}
		} else {
			// The peer's round aborts when the revocation propagates.
			in := reduceop.EncodeInt32s([]int32{1})
			out := make([]byte, len(in))
			rr := dup.IallreduceRelaxed(in, out, 1, datatype.Int32, reduceop.Sum,
				RelaxedOptions{Quorum: 2, Staleness: -1})
			if st := rr.Wait(); !errors.Is(st.Err, ErrCommRevoked) {
				t.Errorf("in-flight round err = %v, want ErrCommRevoked", st.Err)
			}
		}
		p.CommWorld().Barrier()
	})
}

// TestRelaxedRendezvousContribution: a relaxed round folds arriving
// contributions into its result while its own sends may still be
// read — a 256 KiB send is a rendezvous, read by the receiver long
// after issue (over tcp after the CTS, on shm straight out of the
// sender's memory). Every peer must get the sender's own contribution,
// never a partly folded one: with full participation the sum is exact
// only if no contribution is counted twice.
func TestRelaxedRendezvousContribution(t *testing.T) {
	const n, count, rounds = 4, 32 << 10, 4
	// A rank that finds a wrong sum still runs every round: the peers'
	// full-participation rounds wait for it.
	round := func(t *testing.T, p *Proc) {
		comm := p.CommWorld()
		for r := 0; r < rounds; r++ {
			out := make([]byte, 8*count)
			rr := comm.IallreduceRelaxed(allreduceIn(p.Rank(), count, r), out, count, datatype.Float64, reduceop.Sum, RelaxedOptions{})
			if st := rr.Wait(); st.Err != nil || rr.Result().Contributions != n {
				t.Errorf("rank %d round %d: err %v, result %+v", p.Rank(), r, st.Err, *rr.Result())
			} else if err := checkAllreduce(out, n, r); err != nil {
				t.Errorf("rank %d round %d: %v", p.Rank(), r, err)
			}
		}
	}
	t.Run("tcp", func(t *testing.T) {
		runRemote(t, tcpWorlds(t, n, Config{}), func(p *Proc) { round(t, p) })
	})
	t.Run("shm", func(t *testing.T) {
		worlds, _ := compositeWorlds(t, n, []int{0, 0, 0, 0}, Config{}, tcp.Config{})
		runRemote(t, worlds, func(p *Proc) { round(t, p) })
	})
}

// TestRelaxedKillRankTCP is the kill-a-rank chaos case for relaxed
// collectives: a 3-rank TCP job training with full-participation
// rounds and NO staleness bound (Staleness < 0, the sharpest
// discriminator — without the failure path the round hangs forever).
// The victim contributes to a few rounds and parks; after it is
// killed, the survivors' in-flight round must settle on the two of
// them with ErrProcFailed in the round status, and training must keep
// completing rounds on the survivors.
func TestRelaxedKillRankTCP(t *testing.T) {
	const n = 3
	const victim = 2
	const preRounds = 3
	worlds, nets := tcpWorldsFail(t, n, Config{}, chaosTCPConfig())

	var posted sync.WaitGroup
	posted.Add(n - 1)
	killed := make(chan struct{})
	park := make(chan struct{})

	fail := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == victim {
			go worlds[victim].Run(func(p *Proc) {
				opt := RelaxedOptions{Staleness: -1}
				for round := 0; round < preRounds; round++ {
					rr, _ := relaxedStep(p, opt)
					rr.Wait()
				}
				<-park
			})
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
				opt := RelaxedOptions{Staleness: -1}
				for round := 0; round < preRounds; round++ {
					rr, out := relaxedStep(p, opt)
					if st := rr.Wait(); st.Err != nil || rr.Result().Contributions != n {
						fail[r] = fmt.Errorf("rank %d pre-kill round %d: err=%v result=%+v",
							r, round, st.Err, *rr.Result())
						return
					}
					if got := reduceop.DecodeInt32s(out)[0]; got != 1+2+3 {
						fail[r] = fmt.Errorf("rank %d pre-kill round %d: sum %d", r, round, got)
						return
					}
				}
				// This round's receive from the victim is posted while
				// the victim is alive but parked; the kill must resolve
				// it with the failure verdict, not hang it.
				rr, _ := relaxedStep(p, opt)
				posted.Done()
				<-killed
				if st := rr.Wait(); st.Err != nil {
					fail[r] = fmt.Errorf("rank %d: kill round aborted: %v", r, st.Err)
					return
				}
				res := rr.Result()
				if !errors.Is(res.Err, ErrProcFailed) {
					fail[r] = fmt.Errorf("rank %d: kill round status = %v, want ErrProcFailed", r, res.Err)
					return
				}
				if res.Contributed.Has(victim) || res.Contributions != n-1 {
					fail[r] = fmt.Errorf("rank %d: kill round result %+v", r, *res)
					return
				}
				// Training continues on the survivors: later rounds
				// keep completing (the dead peer's receives fail at
				// post, shrinking the quorum to the survivors).
				for round := 0; round < 3; round++ {
					rr, out := relaxedStep(p, opt)
					if st := rr.Wait(); st.Err != nil {
						fail[r] = fmt.Errorf("rank %d survivor round %d: %v", r, round, st.Err)
						return
					}
					res := rr.Result()
					if res.Contributions != n-1 || !errors.Is(res.Err, ErrProcFailed) {
						fail[r] = fmt.Errorf("rank %d survivor round %d: result %+v", r, round, *res)
						return
					}
					if got := reduceop.DecodeInt32s(out)[0]; got != 1+2 {
						fail[r] = fmt.Errorf("rank %d survivor round %d: sum %d, want 3", r, round, got)
						return
					}
				}
			})
		}(r)
	}

	posted.Wait()
	nets[victim].Kill()
	close(killed)
	close(park)
	wg.Wait()
	for r, err := range fail {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}
