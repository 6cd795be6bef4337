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
	"gompix/internal/reduceop"
	"gompix/internal/transport/tcp"
)

// chaosTCPConfig is the transport config shared by the process-failure
// chaos tests: a first dial toward a dead peer gives up within 2 s
// instead of the production-scale window.
func chaosTCPConfig() tcp.Config {
	return tcp.Config{DialTimeout: 2 * time.Second}
}

// ulfmRecover is the ULFM recovery drill every survivor runs after the
// world collective aborts: acknowledge what is known locally, run a
// first agreement (which doubles as the failure-discovery round — its
// fault-tolerant exchange generates traffic toward every suspect, so
// the transport verdicts for all dead ranks land before it returns),
// re-acknowledge, agree cleanly, shrink, and prove the survivor
// communicator with a barrier and an allreduce.
//
// wantFailed is the expected failed set after discovery; wantSize the
// survivor communicator size. Returns a description of the first
// violated expectation, or nil.
func ulfmRecover(comm *Comm, r, wantFailed, wantSize int) error {
	comm.AckFailed()
	v, err := comm.Agree(uint32(0x20 | 1<<r))
	if err != nil && !errors.Is(err, ErrProcFailed) {
		return fmt.Errorf("first Agree: %v", err)
	}
	if v != 0x20 {
		return fmt.Errorf("first Agree = %#x, want 0x20 (AND over survivors)", v)
	}
	// The revoke flood shares FIFO links with the agreement frames, so
	// a completed exchange proves the revocation has been applied here.
	if !comm.Revoked() {
		return fmt.Errorf("Revoked() false after first Agree")
	}
	if got := comm.FailedRanks(); len(got) != wantFailed {
		return fmt.Errorf("FailedRanks = %v, want %d dead ranks", got, wantFailed)
	}
	// Everything discovered is now acknowledged, so this agreement must
	// be clean on every rank.
	comm.AckFailed()
	if v, err = comm.Agree(1); err != nil || v != 1 {
		return fmt.Errorf("second Agree = (%#x, %v), want (1, nil)", v, err)
	}
	child, err := comm.Shrink()
	if err != nil {
		return fmt.Errorf("Shrink: %v", err)
	}
	// The dead ranks are the highest world ranks in these tests, so the
	// survivor ranks keep their numbers.
	if child.Size() != wantSize || child.Rank() != r || child.Revoked() {
		return fmt.Errorf("child rank/size/revoked = %d/%d/%v, want %d/%d/false",
			child.Rank(), child.Size(), child.Revoked(), r, wantSize)
	}
	child.Barrier()
	in := reduceop.EncodeInt32s([]int32{int32(r + 1)})
	out := make([]byte, len(in))
	child.Allreduce(in, out, 1, datatype.Int32, reduceop.Sum)
	want := int32(wantSize * (wantSize + 1) / 2)
	if got := reduceop.DecodeInt32s(out)[0]; got != want {
		return fmt.Errorf("survivor allreduce = %d, want %d", got, want)
	}
	return nil
}

// checkCommMetrics asserts the per-rank ULFM counters after a chaos
// drill: survivors each revoked once (locally or via the flood),
// agreed twice, shrank once; victims recorded nothing.
func checkCommMetrics(t *testing.T, d metrics.Snapshot, n int, victims map[int]bool) {
	t.Helper()
	for r := 0; r < n; r++ {
		want := map[string]uint64{"revokes": 1, "agrees": 2, "shrinks": 1}
		if victims[r] {
			want = map[string]uint64{"revokes": 0, "agrees": 0, "shrinks": 0}
		}
		for ev, w := range want {
			name := fmt.Sprintf("rank%d.comm.%s", r, ev)
			if got := d.Counter(name); got != w {
				t.Errorf("%s = %d, want %d", name, got, w)
			}
		}
	}
}

// TestRemoteKillTwoRanks is the full ULFM recovery drill over TCP: a
// 5-rank job loses TWO ranks at once, mid-barrier. Failure detection
// is traffic-driven, so only the survivors whose aborted stage carried
// traffic toward a victim observe ErrProcFailed — rank 0's stage only
// *receives* from a dead rank and would block forever. That is exactly
// what Revoke exists for: each detector revokes the communicator, the
// flood aborts the blocked survivors with ErrCommRevoked, and everyone
// recovers onto a 3-rank communicator — no hang, no panic, under the
// race detector.
func TestRemoteKillTwoRanks(t *testing.T) {
	const n = 5
	victims := map[int]bool{3: true, 4: true}
	reg := metrics.New()
	reg.Enable()
	before := reg.Snapshot()
	worlds, nets := tcpWorldsFail(t, n,
		Config{RndvThreshold: 4 << 10, Metrics: reg}, chaosTCPConfig())

	var posted sync.WaitGroup
	posted.Add(n - len(victims))
	killed := make(chan struct{})
	park := make(chan struct{})

	fail := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if victims[r] {
			// Parked forever: the in-process stand-in for a SIGKILLed rank.
			go worlds[r].Run(func(p *Proc) { <-park })
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
				barrier := comm.Ibarrier()
				posted.Done()
				<-killed

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_, err := barrier.WaitCtx(ctx)
				switch {
				case errors.Is(err, ErrProcFailed):
					// This rank detected a death itself; propagate so the
					// survivors blocked on dead-silent receives get unstuck.
					comm.Revoke()
				case errors.Is(err, ErrCommRevoked):
					// Another survivor detected and revoked first.
				default:
					fail[r] = fmt.Errorf("world barrier: err = %v, want ErrProcFailed or ErrCommRevoked", err)
					return
				}
				fail[r] = ulfmRecover(comm, r, len(victims), n-len(victims))
			})
		}(r)
	}

	posted.Wait()
	nets[3].Kill()
	nets[4].Kill()
	close(killed)
	wg.Wait()

	for r, err := range fail {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	checkCommMetrics(t, metrics.Diff(before, reg.Snapshot()), n, victims)
}

// TestRemoteRevokeMidCollective kills one rank of four while a world
// barrier is in flight and checks that the two abort causes stay
// distinct and deterministic. The dissemination topology fixes the
// roles: rank 2's blocked stage sends toward the victim, so its
// verdict is local and its barrier MUST fail with ErrProcFailed (never
// ErrCommRevoked — nobody has revoked yet when it aborts); rank 0
// never exchanges a byte with the victim, so only the revoke flood can
// abort its barrier, which MUST fail with ErrCommRevoked (never
// ErrProcFailed). Rank 1 races its own verdict against the flood and
// may see either. All survivors then recover onto a 3-rank
// communicator.
func TestRemoteRevokeMidCollective(t *testing.T) {
	const n = 4
	const victim = 3
	reg := metrics.New()
	reg.Enable()
	before := reg.Snapshot()
	worlds, nets := tcpWorldsFail(t, n,
		Config{RndvThreshold: 4 << 10, Metrics: reg}, chaosTCPConfig())

	var posted sync.WaitGroup
	posted.Add(n - 1)
	killed := make(chan struct{})
	park := make(chan struct{})

	fail := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n-1; r++ {
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
				barrier := comm.Ibarrier()
				// The barrier is an async thing of the stream (beside
				// whatever the tcp link has armed for its own flush).
				inFlight := comm.Stream().PendingAsync()
				posted.Done()
				<-killed

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_, err := barrier.WaitCtx(ctx)
				// Verdict or flood, the abort leaves nothing posted.
				if n, _ := comm.local.match.queueLens(); inFlight < 1 || n != 0 {
					fail[r] = fmt.Errorf("barrier: %d async things while in flight (want >= 1), %d receives posted after abort %v (want 0)", inFlight, n, err)
					return
				}
				switch {
				case r == 2 && !errors.Is(err, ErrProcFailed):
					fail[r] = fmt.Errorf("detector barrier: err = %v, want ErrProcFailed", err)
					return
				case r == 0 && !errors.Is(err, ErrCommRevoked):
					fail[r] = fmt.Errorf("bystander barrier: err = %v, want ErrCommRevoked", err)
					return
				case !errors.Is(err, ErrProcFailed) && !errors.Is(err, ErrCommRevoked):
					fail[r] = fmt.Errorf("barrier: err = %v, want ErrProcFailed or ErrCommRevoked", err)
					return
				}
				// Only rank 2 revokes: its abort cause is then provably its
				// own verdict, and rank 0's provably the flood.
				if r == 2 {
					comm.Revoke()
				}
				fail[r] = ulfmRecover(comm, r, 1, n-1)
			})
		}(r)
	}
	go worlds[victim].Run(func(p *Proc) { <-park })

	posted.Wait()
	nets[victim].Kill()
	close(killed)
	wg.Wait()

	for r, err := range fail {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	checkCommMetrics(t, metrics.Diff(before, reg.Snapshot()), n, map[int]bool{victim: true})
}
