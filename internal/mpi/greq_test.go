package mpi

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gompix/internal/core"
)

func TestGrequestBasic(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		queried, freed := false, false
		greq := p.GrequestStart(
			func(extra any, s *Status) error {
				queried = true
				if extra != "st" {
					t.Errorf("extra = %v", extra)
				}
				s.Bytes = 5
				return nil
			},
			func(extra any) error { freed = true; return nil },
			nil, "st",
		)
		if greq.IsComplete() {
			t.Fatal("fresh grequest should be incomplete")
		}
		greq.GrequestComplete()
		st := greq.Wait()
		if !queried || st.Bytes != 5 {
			t.Errorf("query not applied: %+v", st)
		}
		if err := greq.Free(); err != nil || !freed {
			t.Error("free callback not run")
		}
		if err := greq.Free(); err != nil {
			t.Error("double free should be a no-op")
		}
	})
}

func TestGrequestWithAsyncThing(t *testing.T) {
	// The paper's §4.6 pattern: an async thing progresses a task and
	// completes a generalized request; MPI_Wait drives progress.
	run2(t, Config{Procs: 1}, func(p *Proc) {
		greq := p.GrequestStart(nil, nil, nil, nil)
		deadline := p.Wtime() + 0.002
		p.AsyncStart(func(th core.Thing) core.PollOutcome {
			if p.Wtime() >= deadline {
				greq.GrequestComplete()
				return core.Done
			}
			return core.NoProgress
		}, nil, nil)
		start := time.Now()
		greq.Wait()
		if elapsed := time.Since(start); elapsed < time.Millisecond {
			t.Errorf("completed too early: %v", elapsed)
		}
	})
}

func TestGrequestCancel(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		var sawCompleted bool
		greq := p.GrequestStart(nil, nil,
			func(extra any, completed bool) error {
				sawCompleted = completed
				return errors.New("cancel-err")
			}, nil)
		if err := greq.Cancel(); err == nil || err.Error() != "cancel-err" {
			t.Errorf("cancel err = %v", err)
		}
		if sawCompleted {
			t.Error("cancel before completion should see completed=false")
		}
		st := greq.Wait()
		if !st.Cancelled {
			t.Error("status should be cancelled")
		}
	})
}

func TestGrequestCancelAfterComplete(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		greq := p.GrequestStart(nil, nil, nil, nil)
		greq.GrequestComplete()
		if err := greq.Cancel(); err != nil {
			t.Errorf("cancel err = %v", err)
		}
		if greq.Status().Cancelled {
			t.Error("completed request must not be marked cancelled")
		}
	})
}

func TestGrequestMisuse(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		comm := p.CommWorld()
		req := comm.IrecvBytes(make([]byte, 1), 0, 99)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("GrequestComplete on normal request should panic")
				}
			}()
			req.GrequestComplete()
		}()
		// Receive cancellation is a supported operation (not misuse):
		// an unmatched posted receive cancels cleanly.
		if err := req.Cancel(); err != nil {
			t.Errorf("cancel unmatched recv: %v", err)
		}
		if st, ok := req.Test(); !ok || !st.Cancelled {
			t.Errorf("cancelled recv should complete with Cancelled, got %+v ok=%v", st, ok)
		}
		// Send requests remain uncancellable.
		sreq := comm.IsendBytes([]byte{1}, 0, 98)
		if err := sreq.Cancel(); err == nil {
			t.Error("cancel on a send request should error")
		}
		comm.RecvBytes(make([]byte, 1), 0, 98)
		sreq.Wait()
	})
}

// TestCancelUnansweredRendezvousSend: a rendezvous send whose receiver
// has not answered it is withdrawn by Cancel and completes cancelled.
// The receiver matches the RTS afterwards: its CTS finds no handle, the
// ABORT that answers it fails the receive, and the receive buffer is
// never written. A completed send is not cancellable.
func TestCancelUnansweredRendezvousSend(t *testing.T) {
	const n = 256 << 10
	run2(t, Config{}, func(p *Proc) {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			sreq := comm.IsendBytes(payload(n, 3), 1, 7)
			if err := sreq.Cancel(); err != nil {
				t.Errorf("cancel unanswered rendezvous send: %v", err)
			}
			if st := sreq.Wait(); !st.Cancelled || st.Err != nil {
				t.Errorf("withdrawn send completed with %+v, want Cancelled", st)
			}
			if err := sreq.Cancel(); err == nil {
				t.Error("cancel on a completed send should error")
			}
			comm.SendBytes([]byte{1}, 1, 8)
			comm.RecvBytes(make([]byte, 1), 1, 9) // progress answers the CTS meanwhile
			return
		}
		comm.RecvBytes(make([]byte, 1), 0, 8) // the RTS arrived before this
		buf := bytes.Repeat([]byte{0xAA}, n)
		if st := comm.IrecvBytes(buf, 0, 7).Wait(); st.Err == nil {
			t.Errorf("receive of a withdrawn send completed with %+v, want an error", st)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xAA}, n)) {
			t.Error("receive of a withdrawn send wrote its buffer")
		}
		comm.SendBytes([]byte{1}, 0, 9)
	})
}

func TestContinueCallbackRunsInProgress(t *testing.T) {
	run2(t, Config{}, func(p *Proc) {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			comm.SendBytes(payload(2048, 6), 1, 0)
			return
		}
		cr := p.ContinueInit()
		var gotStatus Status
		req := comm.IrecvBytes(make([]byte, 2048), 0, 0)
		cr.Continue(req, func(s Status) { gotStatus = s })
		cr.Start()
		cr.Request().Wait()
		if gotStatus.Bytes != 2048 || gotStatus.Source != 0 {
			t.Errorf("callback status %+v", gotStatus)
		}
		if !req.IsComplete() {
			t.Error("op request should be complete")
		}
	})
}

func TestContinueAlreadyComplete(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		greq := p.GrequestStart(nil, nil, nil, nil)
		greq.GrequestComplete()
		cr := p.ContinueInit()
		ran := false
		cr.Continue(greq, func(Status) { ran = true })
		if !ran {
			t.Error("callback on a completed request should run immediately")
		}
		cr.Start()
		if !cr.Request().IsComplete() {
			t.Error("cont request with no pending continuations should complete at Start")
		}
	})
}

func TestContinueAll(t *testing.T) {
	run2(t, Config{}, func(p *Proc) {
		comm := p.CommWorld()
		const n = 4
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				comm.SendBytes(payload(64, int64(i)), 1, i)
			}
			return
		}
		cr := p.ContinueInit()
		var reqs []*Request
		for i := 0; i < n; i++ {
			reqs = append(reqs, comm.IrecvBytes(make([]byte, 64), 0, i))
		}
		seen := make([]bool, n)
		cr.ContinueEach(reqs, func(i int, s Status) {
			seen[i] = true
			if s.Tag != i {
				t.Errorf("req %d tag %d", i, s.Tag)
			}
		})
		cr.Start()
		cr.Request().Wait()
		for i, ok := range seen {
			if !ok {
				t.Errorf("callback %d never ran", i)
			}
		}
	})
}
