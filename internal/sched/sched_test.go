package sched

import (
	"errors"
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/mpi"
)

func runWorld(t *testing.T, procs int, fn func(*mpi.Proc)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mpi.NewWorld(mpi.Config{
			Procs: procs,
			Fabric: fabric.Config{
				Latency:              2 * time.Microsecond,
				BandwidthBytesPerSec: 50e9,
			},
		}).Run(fn)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock")
	}
}

func TestScheduleLocalRounds(t *testing.T) {
	runWorld(t, 1, func(p *mpi.Proc) {
		s := New(p, nil)
		var order []int
		s.AddOperation(Local(func() { order = append(order, 1) }))
		s.CreateRound()
		s.AddOperation(Local(func() { order = append(order, 2) }))
		req := s.Commit()
		req.Wait()
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Errorf("order %v", order)
		}
	})
}

func TestScheduleRoundsExchange(t *testing.T) {
	// Two rounds of pingpong expressed as a schedule.
	runWorld(t, 2, func(p *mpi.Proc) {
		comm := p.CommWorld()
		peer := 1 - p.Rank()
		in1 := make([]byte, 4)
		in2 := make([]byte, 4)
		s := New(p, nil)
		s.AddOperation(func() *mpi.Request { return comm.IsendBytes([]byte{byte(p.Rank()), 1, 0, 0}, peer, 1) })
		s.AddOperation(func() *mpi.Request { return comm.IrecvBytes(in1, peer, 1) })
		s.CreateRound()
		s.AddOperation(func() *mpi.Request { return comm.IsendBytes([]byte{byte(p.Rank()), 2, 0, 0}, peer, 2) })
		s.AddOperation(func() *mpi.Request { return comm.IrecvBytes(in2, peer, 2) })
		req := s.Commit()
		req.Wait()
		if in1[0] != byte(peer) || in1[1] != 1 || in2[1] != 2 {
			t.Errorf("rank %d: in1=%v in2=%v", p.Rank(), in1, in2)
		}
	})
}

func TestScheduleRoundBarrierOrdering(t *testing.T) {
	// Round 2's send must not be issued before round 1 completes: the
	// receiver receives the messages in round order on the same tag.
	runWorld(t, 2, func(p *mpi.Proc) {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			got := make([]byte, 1)
			comm.RecvBytes(got, 1, 0)
			first := got[0]
			comm.RecvBytes(got, 1, 0)
			if first != 1 || got[0] != 2 {
				t.Errorf("rounds out of order: %d then %d", first, got[0])
			}
			return
		}
		s := New(p, nil)
		s.AddOperation(func() *mpi.Request { return comm.IsendBytes([]byte{1}, 0, 0) })
		s.CreateRound()
		s.AddOperation(func() *mpi.Request { return comm.IsendBytes([]byte{2}, 0, 0) })
		s.Commit().Wait()
	})
}

func TestScheduleMisusePanics(t *testing.T) {
	runWorld(t, 1, func(p *mpi.Proc) {
		s := New(p, nil)
		s.AddOperation(Local(func() {}))
		s.Commit().Wait()
		for name, fn := range map[string]func(){
			"add":    func() { s.AddOperation(Local(func() {})) },
			"round":  func() { s.CreateRound() },
			"commit": func() { s.Commit() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s after commit should panic", name)
					}
				}()
				fn()
			}()
		}
	})
}

func TestScheduleOnDedicatedStream(t *testing.T) {
	runWorld(t, 1, func(p *mpi.Proc) {
		st := p.StreamCreate()
		s := New(p, st)
		ran := false
		s.AddOperation(Local(func() { ran = true }))
		req := s.Commit()
		// NULL-stream progress must not advance it.
		for i := 0; i < 100; i++ {
			p.Progress()
		}
		if req.IsComplete() || ran {
			t.Error("schedule ran on the wrong stream")
		}
		for !req.IsComplete() {
			p.StreamProgress(st)
		}
		if !ran {
			t.Error("schedule never ran")
		}
		p.StreamFree(st)
	})
}

// TestScheduleErrorStopsRounds: an operation that completes with an
// error ends the schedule — the next round is never issued, the failed
// round's still-pending receive is withdrawn, and the committed request
// carries the error.
func TestScheduleErrorStopsRounds(t *testing.T) {
	runWorld(t, 1, func(p *mpi.Proc) {
		comm := p.CommWorld()
		var failing, stuck *mpi.Request
		round2 := false
		s := New(p, nil)
		s.AddOperation(func() *mpi.Request {
			failing = p.GrequestStart(func(any, *mpi.Status) error { return mpi.ErrProcFailed }, nil, nil, nil)
			return failing
		})
		s.AddOperation(func() *mpi.Request {
			stuck = comm.IrecvBytes(make([]byte, 1), 0, 99) // nobody sends it
			return stuck
		})
		s.CreateRound()
		s.AddOperation(Local(func() { round2 = true }))
		req := s.Commit()
		for failing == nil {
			p.Progress()
		}
		if req.IsComplete() {
			t.Fatal("schedule complete with round 1 pending")
		}
		failing.GrequestComplete()
		if st := req.Wait(); !errors.Is(st.Err, mpi.ErrProcFailed) {
			t.Errorf("request status err = %v, want ErrProcFailed", st.Err)
		}
		if round2 {
			t.Error("round 2 issued after round 1 failed")
		}
		if !stuck.Cancelled() {
			t.Error("failed round left its receive posted")
		}
	})
}

// TestCommitBesideStreamCreate: Commit reaches for the NULL stream's
// VCI (its request is a generalized request) while another goroutine
// creates and frees streams. Under -race this is the regression for the
// unlocked read of the VCI table.
func TestCommitBesideStreamCreate(t *testing.T) {
	runWorld(t, 1, func(p *mpi.Proc) {
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
					p.StreamFree(p.StreamCreate())
				}
			}
		}()
		for i := 0; i < 200; i++ {
			s := New(p, nil)
			s.AddOperation(Local(func() {}))
			s.Commit().Wait()
		}
		close(stop)
		<-stopped
	})
}
