package coll

import (
	"sync"
	"testing"

	"gompix/internal/core"
	"gompix/internal/timing"
)

// memTransport is an in-memory loopback transport connecting n fake
// ranks for unit-testing schedules without the MPI stack.
type memNet struct {
	mu    sync.Mutex
	boxes map[key][][]byte // (src,dst,tag) -> FIFO of payloads
}

type key struct{ src, dst, tag int }

type memTransport struct {
	net  *memNet
	rank int
	size int

	// failFrom injects delivery errors: an Irecv from a listed source
	// completes immediately with that error (a dead peer's
	// ErrProcFailed, in miniature).
	failFrom map[int]error
}

type memReq struct {
	done      bool
	buf       []byte
	poll      func(*memReq)
	failErr   error
	cancelled bool
}

func (r *memReq) IsComplete() bool {
	if !r.done && r.poll != nil {
		r.poll(r)
	}
	return r.done
}

func (r *memReq) Err() error      { return r.failErr }
func (r *memReq) Cancelled() bool { return r.cancelled }

// Cancel mimics the MPI recv contract: only a still-pending request
// can be withdrawn, and it then completes as cancelled with no error.
func (r *memReq) Cancel() error {
	if !r.done {
		r.done = true
		r.cancelled = true
		r.poll = nil
	}
	return nil
}

func newMemNet(n int) []*memTransport {
	net := &memNet{boxes: make(map[key][][]byte)}
	out := make([]*memTransport, n)
	for i := range out {
		out[i] = &memTransport{net: net, rank: i, size: n}
	}
	return out
}

func (t *memTransport) Rank() int { return t.rank }
func (t *memTransport) Size() int { return t.size }

func (t *memTransport) Isend(data []byte, dst, tag int) Completable {
	cp := make([]byte, len(data))
	copy(cp, data)
	t.net.mu.Lock()
	k := key{t.rank, dst, tag}
	t.net.boxes[k] = append(t.net.boxes[k], cp)
	t.net.mu.Unlock()
	return &memReq{done: true}
}

func (t *memTransport) Irecv(buf []byte, src, tag int) Completable {
	if err, ok := t.failFrom[src]; ok {
		return &memReq{done: true, failErr: err}
	}
	r := &memReq{buf: buf}
	k := key{src, t.rank, tag}
	r.poll = func(r *memReq) {
		t.net.mu.Lock()
		defer t.net.mu.Unlock()
		q := t.net.boxes[k]
		if len(q) == 0 {
			return
		}
		copy(r.buf, q[0])
		t.net.boxes[k] = q[1:]
		r.done = true
	}
	return r
}

// drive runs all schedules to completion by round-robin polling.
func drive(t *testing.T, scheds []*Schedule) {
	t.Helper()
	for iter := 0; iter < 100000; iter++ {
		all := true
		for _, s := range scheds {
			s.Poll()
			if !s.IsComplete() {
				all = false
			}
		}
		if all {
			return
		}
	}
	t.Fatal("schedules did not converge")
}

func addByte(inout, in []byte) {
	for i := range in {
		if i < len(inout) {
			inout[i] += in[i]
		}
	}
}

func TestScheduleStagesSequential(t *testing.T) {
	trs := newMemNet(1)
	s := NewSchedule(trs[0])
	var order []int
	s.AddStage(Local(func() { order = append(order, 1) }))
	s.AddStage(Local(func() { order = append(order, 2) }), Local(func() { order = append(order, 3) }))
	s.AddStage() // empty stage ignored
	done := false
	s.OnComplete(func() { done = true })
	if s.IsComplete() {
		t.Fatal("fresh schedule complete")
	}
	s.Poll()
	if !s.IsComplete() || !done {
		t.Fatal("all-local schedule should finish in one poll")
	}
	if len(order) != 3 || order[0] != 1 {
		t.Fatalf("order %v", order)
	}
	if s.Poll() {
		t.Fatal("completed schedule should report no progress")
	}
}

func TestScheduleWaitsForRecv(t *testing.T) {
	trs := newMemNet(2)
	s0 := NewSchedule(trs[0])
	buf := make([]byte, 3)
	s0.AddStage(Recv(buf, 1, 0))
	ran := false
	s0.AddStage(Local(func() { ran = true }))
	s0.Poll()
	if s0.IsComplete() || ran {
		t.Fatal("stage 2 ran before recv completed")
	}
	trs[1].Isend([]byte{7, 8, 9}, 0, 0)
	s0.Poll()
	if !s0.IsComplete() || !ran || buf[0] != 7 {
		t.Fatalf("schedule did not finish: %v %v", ran, buf)
	}
}

// TestScheduleStartLifecycle: over a bare core stream, a schedule that
// completes in its call-time poll never becomes an async thing, and a
// blocked one is exactly one pending thing until its receive lands.
// The blocked one issues through Issue, so the op MPIX Schedule is
// built on is polled through a real pass too.
func TestScheduleStartLifecycle(t *testing.T) {
	trs := newMemNet(2)
	st := core.NewEngine(timing.NewManualClock()).NewStream()

	s := NewSchedule(trs[0])
	s.AddStage(Local(func() {}), Issue(func() Completable { return nil }))
	s.Start(st)
	if !s.IsComplete() || st.PendingAsync() != 0 {
		t.Fatalf("trivial schedule: complete=%v pending=%d, want done at Start and no thing", s.IsComplete(), st.PendingAsync())
	}

	buf := make([]byte, 1)
	issued := false
	s2 := NewSchedule(trs[0])
	s2.AddStage(Issue(func() Completable { issued = true; return trs[0].Irecv(buf, 1, 1) }))
	s2.Start(st)
	if !issued {
		t.Fatal("first stage not issued at Start")
	}
	if st.PendingAsync() != 1 || st.Pending() != 1 {
		t.Fatalf("blocked schedule: PendingAsync=%d Pending=%d, want 1/1", st.PendingAsync(), st.Pending())
	}
	if st.Progress() || s2.IsComplete() {
		t.Fatal("schedule advanced without its receive")
	}
	trs[1].Isend([]byte{5}, 0, 1)
	if !st.Progress() {
		t.Fatal("pass that lands the receive should report progress")
	}
	if !s2.IsComplete() || buf[0] != 5 || st.PendingAsync() != 0 {
		t.Fatalf("schedule did not drain: complete=%v buf=%v pending=%d", s2.IsComplete(), buf, st.PendingAsync())
	}
	if got := st.Stats(); got.AsyncDone != 1 || got.MadeByClass[core.ClassAsync] != 1 {
		t.Fatalf("stats = %+v, want one thing retired by one async-class pass", got)
	}
}

func scheds(trs []*memTransport, mk func(tr *memTransport) *Schedule) []*Schedule {
	out := make([]*Schedule, len(trs))
	for i, tr := range trs {
		out[i] = mk(tr)
	}
	return out
}

func TestBarrierCompletesOnlyTogether(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		trs := newMemNet(p)
		ss := scheds(trs, func(tr *memTransport) *Schedule { return Barrier(tr, 0) })
		drive(t, ss)
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root++ {
			trs := newMemNet(p)
			bufs := make([][]byte, p)
			for i := range bufs {
				bufs[i] = make([]byte, 4)
				if i == root {
					copy(bufs[i], []byte{1, 2, 3, 4})
				}
			}
			ss := make([]*Schedule, p)
			for i, tr := range trs {
				ss[i] = Bcast(tr, bufs[i], root, 0)
			}
			drive(t, ss)
			for i, b := range bufs {
				if b[0] != 1 || b[3] != 4 {
					t.Fatalf("p=%d root=%d rank=%d got %v", p, root, i, b)
				}
			}
		}
	}
}

func TestReduceBinomial(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8} {
		for root := 0; root < p; root += 2 {
			trs := newMemNet(p)
			bufs := make([][]byte, p)
			ss := make([]*Schedule, p)
			for i, tr := range trs {
				bufs[i] = []byte{byte(i + 1), 10}
				ss[i] = Reduce(tr, bufs[i], addByte, root, 0)
			}
			drive(t, ss)
			wantA := byte(p * (p + 1) / 2)
			wantB := byte(10 * p)
			if bufs[root][0] != wantA || bufs[root][1] != wantB {
				t.Fatalf("p=%d root=%d got %v want [%d %d]", p, root, bufs[root], wantA, wantB)
			}
		}
	}
}

func TestAllreduceRecDblAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16} {
		trs := newMemNet(p)
		bufs := make([][]byte, p)
		ss := make([]*Schedule, p)
		for i, tr := range trs {
			bufs[i] = []byte{byte(i + 1)}
			ss[i] = AllreduceRecDbl(tr, bufs[i], addByte, 0)
		}
		drive(t, ss)
		want := byte(p * (p + 1) / 2)
		for i, b := range bufs {
			if b[0] != want {
				t.Fatalf("p=%d rank=%d got %d want %d", p, i, b[0], want)
			}
		}
	}
}

func TestAllreduceRing(t *testing.T) {
	for _, p := range []int{2, 3, 4, 5, 8} {
		trs := newMemNet(p)
		const n = 16 // 16 single-byte elements
		bufs := make([][]byte, p)
		ss := make([]*Schedule, p)
		for i, tr := range trs {
			bufs[i] = make([]byte, n)
			for j := range bufs[i] {
				bufs[i][j] = byte(i + j)
			}
			ss[i] = AllreduceRing(tr, bufs[i], 1, addByte, 0)
		}
		drive(t, ss)
		for j := 0; j < n; j++ {
			want := byte(0)
			for i := 0; i < p; i++ {
				want += byte(i + j)
			}
			for i := 0; i < p; i++ {
				if bufs[i][j] != want {
					t.Fatalf("p=%d rank=%d elem=%d got %d want %d", p, i, j, bufs[i][j], want)
				}
			}
		}
	}
}

func TestAllgatherRing(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		trs := newMemNet(p)
		const bs = 3
		bufs := make([][]byte, p)
		ss := make([]*Schedule, p)
		for i, tr := range trs {
			bufs[i] = make([]byte, p*bs)
			for j := 0; j < bs; j++ {
				bufs[i][i*bs+j] = byte(10*i + j)
			}
			ss[i] = AllgatherRing(tr, bufs[i], bs, 0)
		}
		drive(t, ss)
		for i := 0; i < p; i++ {
			for r := 0; r < p; r++ {
				for j := 0; j < bs; j++ {
					if bufs[i][r*bs+j] != byte(10*r+j) {
						t.Fatalf("p=%d rank=%d block=%d got %v", p, i, r, bufs[i])
					}
				}
			}
		}
	}
}

func TestAlltoallPairwise(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		trs := newMemNet(p)
		const bs = 2
		recv := make([][]byte, p)
		ss := make([]*Schedule, p)
		for i, tr := range trs {
			send := make([]byte, p*bs)
			for d := 0; d < p; d++ {
				send[d*bs] = byte(i)
				send[d*bs+1] = byte(d)
			}
			recv[i] = make([]byte, p*bs)
			ss[i] = Alltoall(tr, send, recv[i], bs, 0)
		}
		drive(t, ss)
		for i := 0; i < p; i++ {
			for s := 0; s < p; s++ {
				if recv[i][s*bs] != byte(s) || recv[i][s*bs+1] != byte(i) {
					t.Fatalf("p=%d rank=%d from=%d got %v", p, i, s, recv[i])
				}
			}
		}
	}
}

func TestGatherScatterLinear(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		root := p / 2
		trs := newMemNet(p)
		// Gather
		recv := make([]byte, p)
		ss := make([]*Schedule, p)
		for i, tr := range trs {
			var rb []byte
			if i == root {
				rb = recv
			}
			ss[i] = Gather(tr, []byte{byte(i + 1)}, rb, 1, root, 0)
		}
		drive(t, ss)
		for i := 0; i < p; i++ {
			if recv[i] != byte(i+1) {
				t.Fatalf("gather p=%d got %v", p, recv)
			}
		}
		// Scatter
		out := make([][]byte, p)
		for i, tr := range trs {
			out[i] = make([]byte, 1)
			var sb []byte
			if i == root {
				sb = recv
			}
			ss[i] = Scatter(tr, sb, out[i], 1, root, 1)
		}
		drive(t, ss)
		for i := 0; i < p; i++ {
			if out[i][0] != byte(i+1) {
				t.Fatalf("scatter p=%d rank=%d got %v", p, i, out[i])
			}
		}
	}
}

func TestScanInclusive(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6} {
		trs := newMemNet(p)
		bufs := make([][]byte, p)
		ss := make([]*Schedule, p)
		for i, tr := range trs {
			bufs[i] = []byte{byte(i + 1)}
			ss[i] = Scan(tr, bufs[i], addByte, 0)
		}
		drive(t, ss)
		for i := 0; i < p; i++ {
			want := byte((i + 1) * (i + 2) / 2)
			if bufs[i][0] != want {
				t.Fatalf("p=%d rank=%d got %d want %d", p, i, bufs[i][0], want)
			}
		}
	}
}

func TestScheduleAbort(t *testing.T) {
	errBoom := errTest("boom")

	// Abort before the first poll: no stage ever issues, the completion
	// callback still fires, and Err carries the cause.
	trs := newMemNet(1)
	s := NewSchedule(trs[0])
	ran := false
	s.AddStage(Local(func() { ran = true }))
	done := false
	s.OnComplete(func() { done = true })
	s.Abort(errBoom)
	s.Poll()
	if !s.IsComplete() || !done {
		t.Fatal("aborted schedule did not complete")
	}
	if s.Err() != errBoom {
		t.Fatalf("Err = %v, want %v", s.Err(), errBoom)
	}
	if ran {
		t.Fatal("stage issued after abort")
	}

	// Abort mid-schedule: the blocked stage's error wins the race only
	// if the abort lands first; either way later stages never issue.
	trs = newMemNet(2)
	s = NewSchedule(trs[0])
	s.AddStage(Recv(make([]byte, 4), 1, 0)) // never satisfied
	tail := false
	s.AddStage(Local(func() { tail = true }))
	s.Poll() // issues the recv, blocks
	if s.IsComplete() {
		t.Fatal("schedule completed without a sender")
	}
	s.Abort(errBoom)
	s.Poll()
	if !s.IsComplete() || s.Err() != errBoom || tail {
		t.Fatalf("mid-schedule abort: complete=%v err=%v tail=%v", s.IsComplete(), s.Err(), tail)
	}

	// Abort(nil) is a no-op; abort after completion keeps the first
	// outcome (first writer wins, including the nil success).
	trs = newMemNet(1)
	s = NewSchedule(trs[0])
	s.AddStage(Local(func() {}))
	s.Abort(nil)
	s.Poll()
	if !s.IsComplete() || s.Err() != nil {
		t.Fatalf("Abort(nil) changed the outcome: err=%v", s.Err())
	}
	s.Abort(errBoom)
	s.Poll()
	if s.Err() != nil {
		t.Fatalf("post-completion abort rewrote Err to %v", s.Err())
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// TestScheduleReset: a completed schedule rearmed with Reset runs the
// same collective again under the new tag, over the same buffers — the
// reuse the MPI layer's per-communicator plans rely on. Each round
// refills the contributions, so a stale fold or a stale request from
// the previous run would show in the sums; an aborted run is rearmed
// too (its error and abort cause are gone).
func TestScheduleReset(t *testing.T) {
	builders := map[string]struct {
		p  int
		mk func(tr Transport, buf []byte) *Schedule
	}{
		"hier":   {4, func(tr Transport, buf []byte) *Schedule { return HierAllreduce(tr, buf, addByte, 0, []int{0, 0, 1, 1}) }},
		"recdbl": {5, func(tr Transport, buf []byte) *Schedule { return AllreduceRecDbl(tr, buf, addByte, 0) }},
		"ring":   {4, func(tr Transport, buf []byte) *Schedule { return AllreduceRing(tr, buf, 1, addByte, 0) }},
	}
	for name, b := range builders {
		t.Run(name, func(t *testing.T) {
			trs := newMemNet(b.p)
			bufs := make([][]byte, b.p)
			scheds := make([]*Schedule, b.p)
			for r := range scheds {
				bufs[r] = make([]byte, 8)
				scheds[r] = b.mk(trs[r], bufs[r])
			}
			for round := 1; round <= 4; round++ {
				want := byte(0)
				for r := range bufs {
					for i := range bufs[r] {
						bufs[r][i] = byte(r + round + i)
					}
					want += byte(r + round)
				}
				if round == 3 {
					// An aborted run, then the next round starts clean.
					for _, s := range scheds {
						s.Reset(100 + round)
						s.Abort(errTest("revoked"))
						s.Poll()
						if !s.IsComplete() || s.Err() == nil {
							t.Fatal("aborted run did not complete with its cause")
						}
					}
					continue
				}
				for _, s := range scheds {
					s.Reset(100 + round)
				}
				drive(t, scheds)
				for r := range bufs {
					if err := scheds[r].Err(); err != nil {
						t.Fatalf("round %d rank %d: %v", round, r, err)
					}
					for i, got := range bufs[r] {
						if got != want+byte(b.p*i) {
							t.Fatalf("round %d rank %d byte %d = %d, want %d", round, r, i, got, want+byte(b.p*i))
						}
					}
				}
			}
		})
	}
}

// heldReq is a request only the test completes: a send whose receiver
// never answers, or a receive that matched before a sweep could cancel
// it. Cancel counts its calls and refuses.
type heldReq struct {
	done    bool
	cancels int
}

func (r *heldReq) IsComplete() bool { return r.done }
func (r *heldReq) Cancel() error {
	r.cancels++
	return errTest("matched")
}

// holdTransport hands out heldReqs, newest last.
type holdTransport struct{ reqs []*heldReq }

func (t *holdTransport) Rank() int { return 0 }
func (t *holdTransport) Size() int { return 2 }
func (t *holdTransport) Isend([]byte, int, int) Completable {
	t.reqs = append(t.reqs, &heldReq{})
	return t.reqs[len(t.reqs)-1]
}
func (t *holdTransport) Irecv([]byte, int, int) Completable {
	t.reqs = append(t.reqs, &heldReq{})
	return t.reqs[len(t.reqs)-1]
}

// TestScheduleAbortWaitsForReceives: an aborted schedule completes only
// once no receive of its interrupted stage can still write its buffers
// — one that matched before the sweep could cancel it — because a
// collective running in the caller's memory must not write it after
// the caller's request completed. The sweep asks each pending send to
// withdraw, and one that stays pending holds nothing up: its receiver
// may have aborted before posting the receive that would answer it. A
// stage the abort kept from issuing holds nothing up either.
func TestScheduleAbortWaitsForReceives(t *testing.T) {
	tr := &holdTransport{}
	s := NewSchedule(tr)
	in, out := make([]byte, 4), make([]byte, 4)
	s.Bind(in, out)
	s.AddStage(send(ref{slot: slotIn, n: 4}, 1, 0), recv(s.out(0, 4), 1, 0))
	s.AddStage(recv(s.out(0, 4), 1, 0))
	completions := 0
	s.OnComplete(func() { completions++ })
	s.Poll()
	s.Abort(errTest("revoked"))
	s.Poll()
	if s.IsComplete() {
		t.Fatal("aborted schedule completed with a matched receive pending")
	}
	if len(tr.reqs) != 2 {
		t.Fatalf("%d operations issued, want the first stage's 2", len(tr.reqs))
	}
	sendReq, recvReq := tr.reqs[0], tr.reqs[1]
	if sendReq.cancels != 1 || recvReq.cancels != 1 {
		t.Fatalf("sweep cancelled the send %d times and the receive %d times, want once each", sendReq.cancels, recvReq.cancels)
	}
	recvReq.done = true
	s.Poll()
	if !s.IsComplete() || completions != 1 || s.Err() == nil {
		t.Fatalf("after the receive resolved: complete=%v completions=%d err=%v", s.IsComplete(), completions, s.Err())
	}
}

// TestQuorumSettleKeepsSends: a quorum stage that settles on staleness
// cancels its straggler receives but lets its pending sends run — a
// straggler still gets this rank's contribution — unlike an abort,
// which withdraws them.
func TestQuorumSettleKeepsSends(t *testing.T) {
	tr := &holdTransport{}
	s := NewSchedule(tr)
	s.AddQuorum(QuorumStage{Need: 0, Stale: func() bool { return true }},
		Send(make([]byte, 4), 1, 0), RecvReduce(make([]byte, 4), 1, 0, func([]byte) {}))
	s.Poll()
	if !s.IsComplete() {
		t.Fatal("stale quorum stage did not settle")
	}
	if sendReq, recvReq := tr.reqs[0], tr.reqs[1]; sendReq.cancels != 0 || recvReq.cancels != 1 {
		t.Fatalf("settle cancelled the send %d times and the receive %d times, want 0 and 1", sendReq.cancels, recvReq.cancels)
	}
}
