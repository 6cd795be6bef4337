package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/core"
	"gompix/internal/datatype"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/reduceop"
)

// TestRevokeFailsPendingAndFutureOps: revoking a communicator
// completes its pending operations with ErrCommRevoked and rejects new
// ones at initiation, while other communicators (world) stay usable.
func TestRevokeFailsPendingAndFutureOps(t *testing.T) {
	run2(t, Config{Procs: 2}, func(p *Proc) {
		world := p.CommWorld()
		dup := world.Dup()
		// A receive that no one will ever send to.
		pending := dup.IrecvBytes(make([]byte, 8), 1-p.Rank(), 77)
		if p.Rank() == 0 {
			dup.Revoke()
			if !dup.Revoked() {
				t.Error("rank 0: Revoked() false after Revoke")
			}
		}
		if st := pending.Wait(); !errors.Is(st.Err, ErrCommRevoked) {
			t.Errorf("rank %d: pending recv err = %v, want ErrCommRevoked", p.Rank(), st.Err)
		}
		// New operations on the revoked communicator fail at initiation.
		if st := dup.IsendBytes([]byte("x"), 1-p.Rank(), 1).Wait(); !errors.Is(st.Err, ErrCommRevoked) {
			t.Errorf("rank %d: post-revoke send err = %v, want ErrCommRevoked", p.Rank(), st.Err)
		}
		if st := dup.IrecvBytes(make([]byte, 1), 1-p.Rank(), 1).Wait(); !errors.Is(st.Err, ErrCommRevoked) {
			t.Errorf("rank %d: post-revoke recv err = %v, want ErrCommRevoked", p.Rank(), st.Err)
		}
		if st := dup.Ibarrier().Wait(); !errors.Is(st.Err, ErrCommRevoked) {
			t.Errorf("rank %d: post-revoke barrier err = %v, want ErrCommRevoked", p.Rank(), st.Err)
		}
		// The world communicator is untouched.
		world.Barrier()
		msg := []byte("hello")
		if p.Rank() == 0 {
			world.SendBytes(msg, 1, 5)
		} else {
			buf := make([]byte, len(msg))
			if st := world.RecvBytes(buf, 0, 5); st.Err != nil {
				t.Errorf("rank 1: world recv after sibling revoke: %v", st.Err)
			}
		}
	})
}

// TestRevokePropagatesViaControlFrame: a rank that never calls Revoke
// locally still learns of the revocation through the flooded
// kindRevokeMsg frame and fails its pending operations.
func TestRevokePropagatesViaControlFrame(t *testing.T) {
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("n%d", procs), func(t *testing.T) {
			run2(t, Config{Procs: procs}, func(p *Proc) {
				dup := p.CommWorld().Dup()
				if p.Rank() == 0 {
					// Give the peers time to post, then revoke without
					// sending anything.
					time.Sleep(20 * time.Millisecond)
					dup.Revoke()
					return
				}
				// Blocks until the revoke frame arrives and sweeps it.
				st := dup.IrecvBytes(make([]byte, 8), 0, 9).Wait()
				if !errors.Is(st.Err, ErrCommRevoked) {
					t.Errorf("rank %d: err = %v, want ErrCommRevoked", p.Rank(), st.Err)
				}
				if !dup.Revoked() {
					t.Errorf("rank %d: Revoked() false after remote revoke", p.Rank())
				}
			})
		})
	}
}

// TestRevokeMidCollective: a collective in flight when the
// communicator is revoked aborts with ErrCommRevoked — distinctly, not
// ErrProcFailed (nobody died here).
func TestRevokeMidCollective(t *testing.T) {
	run2(t, Config{Procs: 4}, func(p *Proc) {
		dup := p.CommWorld().Dup()
		if p.Rank() == 3 {
			// Never joins the barrier; revokes instead, mid-collective for
			// the other ranks.
			time.Sleep(20 * time.Millisecond)
			dup.Revoke()
		} else {
			// A collective in flight is one async thing of the
			// communicator's stream and nothing else: on a sim world
			// nothing but the two schedules is pending.
			s := dup.Stream()
			madeAsync := s.Stats().MadeByClass[core.ClassAsync]
			barrier := dup.Ibarrier()
			if got := s.PendingAsync(); got != 1 {
				t.Errorf("rank %d: PendingAsync = %d with a barrier in flight, want 1", p.Rank(), got)
			}
			in := reduceop.EncodeInt32s([]int32{1})
			allreduce := dup.Iallreduce(in, make([]byte, len(in)), 1, datatype.Int32, reduceop.Sum)
			if got := s.PendingAsync(); got != 2 {
				t.Errorf("rank %d: PendingAsync = %d with an allreduce beside it, want 2", p.Rank(), got)
			}
			for _, req := range []*Request{barrier, allreduce} {
				st := req.Wait()
				if !errors.Is(st.Err, ErrCommRevoked) {
					t.Errorf("rank %d: mid-collective err = %v, want ErrCommRevoked", p.Rank(), st.Err)
				}
				if errors.Is(st.Err, ErrProcFailed) {
					t.Errorf("rank %d: revocation misreported as process failure", p.Rank())
				}
			}
			// The revocation retired both things and left nothing posted.
			if got := s.PendingAsync(); got != 0 {
				t.Errorf("rank %d: PendingAsync = %d after the revocation, want 0", p.Rank(), got)
			}
			if posted, _ := dup.local.match.queueLens(); posted != 0 {
				t.Errorf("rank %d: %d receives still posted after the revocation", p.Rank(), posted)
			}
			if got := s.Stats().MadeByClass[core.ClassAsync]; got <= madeAsync {
				t.Errorf("rank %d: MadeByClass[async] = %d, did not grow from %d", p.Rank(), got, madeAsync)
			}
		}
		// Recovery still works on the revoked communicator: agree, then
		// shrink (no one is dead, so the child is full-size), then a
		// collective on the child.
		v, err := dup.Agree(1)
		if err != nil || v != 1 {
			t.Errorf("rank %d: Agree on revoked comm = (%d, %v)", p.Rank(), v, err)
		}
		child, err := dup.Shrink()
		if err != nil {
			t.Errorf("rank %d: Shrink: %v", p.Rank(), err)
			return
		}
		if child.Size() != 4 || child.Revoked() {
			t.Errorf("rank %d: child size=%d revoked=%v", p.Rank(), child.Size(), child.Revoked())
		}
		child.Barrier()
	})
}

// TestSenderAbortAfterCTS: the receiver has matched a rendezvous RTS and
// sent its CTS when the sender gives the send up, before the CTS reaches
// it. The late CTS finds no send handle, and the receive — registered
// for data that will never come — fails exactly once, and neither
// rank's handle tables keep an entry:
//
//   - revoke: the sender's revocation sweep aborts the send (it still
//     awaits its CTS); the receive fails through the receiver's own
//     sweep when the flooded revocation arrives, with ErrCommRevoked.
//   - linkdown: the send is given up as rndvFail gives up one whose
//     post failed (handle dropped, ErrLinkDown); the sender answers the
//     CTS with an abort, and the receive fails with ErrLinkDown.
//
// On shm the pair runs over the rings: a receiver that can read the
// sender's memory answers with the message read, not a CTS.
func TestSenderAbortAfterCTS(t *testing.T) {
	const size = 256 << 10 // rendezvous
	tables := func(v *VCI) (sends, recvs int) {
		v.hmu.Lock()
		defer v.hmu.Unlock()
		return len(v.sends), len(v.recvs)
	}
	causes := []struct {
		name  string
		abort func(dup *Comm) // on the sender, no pass run since the CTS went out
		want  error
	}{
		{"revoke", func(dup *Comm) { dup.Revoke() }, ErrCommRevoked},
		{"linkdown", func(dup *Comm) {
			v := dup.local
			var st *netSendState
			v.hmu.Lock()
			for _, s := range v.sends { // the one send awaiting its CTS
				st = s
			}
			v.hmu.Unlock()
			v.rndvFail(st, nic.ErrLinkDown)
		}, ErrLinkDown},
	}
	for _, cause := range causes {
		for _, kind := range []string{"sim", "tcp", "shm"} {
			t.Run(cause.name+"/"+kind, func(t *testing.T) {
				rtsOut, ctsOut := make(chan struct{}), make(chan struct{})
				world := kind
				if kind == "shm" {
					world = "shm-rings"
				}
				ladderWorlds(t, world, nil, func(p *Proc) {
					dup := p.CommWorld().Dup()
					v := dup.local
					if p.Rank() == 0 {
						sreq := dup.IsendBytes(make([]byte, size), 1, 5)
						for v.ep.PendingTx() > 0 {
							p.Progress()
						}
						close(rtsOut)
						// No pass runs here until the abort is in: a
						// revocation sweep is an async thing, polled before
						// the netmod that would handle the CTS.
						<-ctsOut
						cause.abort(dup)
						if st := sreq.Wait(); !errors.Is(st.Err, cause.want) {
							t.Errorf("send: %+v, want %v before the CTS is read", st, cause.want)
						}
					} else {
						<-rtsOut
						var fired atomic.Int32
						rreq := dup.IrecvBytes(make([]byte, size), 0, 5)
						rreq.OnComplete(func(Status) { fired.Add(1) })
						for _, recvs := tables(v); recvs == 0 || v.ep.PendingTx() > 0; _, recvs = tables(v) {
							p.Progress()
						}
						close(ctsOut)
						if st := rreq.Wait(); !errors.Is(st.Err, cause.want) {
							t.Errorf("receive: %+v, want %v", st, cause.want)
						}
						for fired.Load() == 0 {
							p.Progress()
						}
						p.Progress()
						if n := fired.Load(); n != 1 {
							t.Errorf("receive completed %d times", n)
						}
					}
					// The late CTS and the abort precede the barrier on the
					// same link: once it is through, both are handled.
					p.CommWorld().Barrier()
					if sends, recvs := tables(v); sends != 0 || recvs != 0 {
						t.Errorf("rank %d: %d send and %d receive handles left", p.Rank(), sends, recvs)
					}
				})
			})
		}
	}
}

// TestAgreeValueAndUniformity: Agree returns the AND of every
// contribution, identically everywhere, with a nil error when no
// failures are known.
func TestAgreeValueAndUniformity(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 5} {
		t.Run(fmt.Sprintf("n%d", procs), func(t *testing.T) {
			var agreed [64]uint64 // 1 + value per rank, to check uniformity
			run2(t, Config{Procs: procs}, func(p *Proc) {
				world := p.CommWorld()
				// Every rank contributes all-ones except rank 0's pattern.
				flag := ^uint32(0)
				if p.Rank() == 0 {
					flag = 0b1010
				}
				v, err := world.Agree(flag)
				if err != nil {
					t.Errorf("rank %d: Agree err: %v", p.Rank(), err)
				}
				if v != 0b1010 {
					t.Errorf("rank %d: Agree = %#x, want 0xa", p.Rank(), v)
				}
				atomic.StoreUint64(&agreed[p.Rank()], 1+uint64(v))
				// A second agreement reuses the protocol sequence space.
				v2, err := world.Agree(uint32(p.Rank()) | 0x100)
				if err != nil {
					t.Errorf("rank %d: second Agree err: %v", p.Rank(), err)
				}
				want := uint32(0x100)
				for r := 0; r < procs; r++ {
					want &= uint32(r) | 0x100
				}
				if v2 != want {
					t.Errorf("rank %d: second Agree = %#x, want %#x", p.Rank(), v2, want)
				}
			})
			for r := 0; r < procs; r++ {
				if got := atomic.LoadUint64(&agreed[r]); got != 1+0b1010 {
					t.Errorf("rank %d recorded %d, want %d", r, got, 1+0b1010)
				}
			}
		})
	}
}

// TestShrinkNoFailures: with nobody dead, Shrink is a Dup-like
// operation — same membership, fresh context — and the child carries
// real traffic.
func TestShrinkNoFailures(t *testing.T) {
	run2(t, Config{Procs: 4}, func(p *Proc) {
		world := p.CommWorld()
		if got := world.FailedRanks(); got != nil {
			t.Errorf("rank %d: FailedRanks = %v, want none", p.Rank(), got)
		}
		child, err := world.Shrink()
		if err != nil {
			t.Fatalf("rank %d: Shrink: %v", p.Rank(), err)
		}
		if child.Size() != world.Size() || child.Rank() != world.Rank() {
			t.Errorf("rank %d: child rank/size = %d/%d", p.Rank(), child.Rank(), child.Size())
		}
		child.Barrier()
		in := reduceop.EncodeInt32s([]int32{int32(p.Rank() + 1)})
		out := make([]byte, len(in))
		child.Allreduce(in, out, 1, datatype.Int32, reduceop.Sum)
		n := child.Size()
		if got := reduceop.DecodeInt32s(out)[0]; got != int32(n*(n+1)/2) {
			t.Errorf("rank %d: allreduce on shrunken comm = %d", p.Rank(), got)
		}
	})
}

// TestCommMetricsCounters: the rankN.comm.* counters track
// revoke/shrink/agree events, observable via Snapshot/Diff.
func TestCommMetricsCounters(t *testing.T) {
	reg := metrics.New()
	reg.Enable()
	before := reg.Snapshot()
	run2(t, Config{Procs: 2, Metrics: reg}, func(p *Proc) {
		dup := p.CommWorld().Dup()
		if p.Rank() == 0 {
			dup.Revoke()
		}
		if _, err := dup.Agree(0); err != nil {
			t.Errorf("rank %d: Agree: %v", p.Rank(), err)
		}
		if _, err := dup.Shrink(); err != nil {
			t.Errorf("rank %d: Shrink: %v", p.Rank(), err)
		}
	})
	d := metrics.Diff(before, reg.Snapshot())
	// Rank 0 revoked explicitly; rank 1 applied the flooded revocation.
	for r := 0; r < 2; r++ {
		if got := d.Counter(fmt.Sprintf("rank%d.comm.revokes", r)); got != 1 {
			t.Errorf("rank%d.comm.revokes = %d, want 1", r, got)
		}
		if got := d.Counter(fmt.Sprintf("rank%d.comm.agrees", r)); got != 1 {
			t.Errorf("rank%d.comm.agrees = %d, want 1", r, got)
		}
		if got := d.Counter(fmt.Sprintf("rank%d.comm.shrinks", r)); got != 1 {
			t.Errorf("rank%d.comm.shrinks = %d, want 1", r, got)
		}
	}
}

// TestRevokeIdempotent: revoking twice (or racing a remote revoke) is
// a single transition.
func TestRevokeIdempotent(t *testing.T) {
	reg := metrics.New()
	reg.Enable()
	run2(t, Config{Procs: 2, Metrics: reg}, func(p *Proc) {
		dup := p.CommWorld().Dup()
		dup.Revoke() // both ranks revoke concurrently
		dup.Revoke()
		if !dup.Revoked() {
			t.Errorf("rank %d: not revoked", p.Rank())
		}
	})
	s := reg.Snapshot()
	for r := 0; r < 2; r++ {
		if got := s.Counter(fmt.Sprintf("rank%d.comm.revokes", r)); got != 1 {
			t.Errorf("rank%d.comm.revokes = %d, want 1 (idempotent)", r, got)
		}
	}
}
