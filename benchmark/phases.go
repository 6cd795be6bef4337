package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompix/mpix"
)

type phaseKind int

const (
	kindPingPong  phaseKind = iota // blocking ping-pong between ranks 0 and 1, one message in flight
	kindStream                     // rank 0 streams windows to rank 1, one-byte ack per window
	kindAllreduce                  // every rank calls Allreduce
	kindProgress                   // rank 0: completion→observation latency of dummy async tasks
	kindCont                       // rank 1 streams windows, rank 0 completes each through one ContinueAll
	kindContPoll                   // the same traffic, completion found by rescanning IsComplete every pass
	kindStreamVCI                  // kindStream on `vcis` stream communicators at once, one goroutine each
)

// phaseSpec describes one phase of a workload.
type phaseSpec struct {
	name   string
	kind   phaseKind
	size   int    // message or reduction size in bytes
	window int    // messages in flight (streams), tasks pending (progress)
	vcis   int    // kindStreamVCI: stream communicators driven concurrently
	metric string // the end-to-end metric the phase reports
}

const (
	tagPing = 1
	tagPong = 2
	tagData = 3
	tagAck  = 4

	taskLifetime = 200 * time.Microsecond // paper §4.1 uses 1 s; the latency measured does not depend on it
	taskStagger  = 10 * time.Microsecond  // completions spread over this window, as in the paper's Listing 1.5
)

// opsPerIter is the number of verified operations in one iteration:
// messages for the point-to-point phases, calls for Allreduce, tasks
// for the progress phase.
func (s phaseSpec) opsPerIter() int {
	switch s.kind {
	case kindPingPong:
		return 2
	case kindStream, kindCont, kindContPoll, kindProgress:
		return s.window
	case kindStreamVCI:
		return s.window * s.vcis
	}
	return 1
}

// workingSet is the memory the phase's in-flight payloads occupy on
// both sides (window × size × 2).
func (s phaseSpec) workingSet() int {
	w := s.window
	if w == 0 {
		w = 1
	}
	return w * s.size * 2
}

// bodies maps a phase kind to the constructor of its loop, which
// allocates the phase's buffers for this rank. Each in-flight message
// has a buffer of its own.
var bodies = map[phaseKind]func(*rankCtx, phaseSpec) phaseBody{
	kindPingPong:  pingPongBody,
	kindStream:    streamBody,
	kindAllreduce: allreduceBody,
	kindProgress:  progressBody,
	kindCont:      contBody,
	kindContPoll:  contBody,
	kindStreamVCI: streamVCIBody,
}

// idleBody is what a rank outside the phase's pattern runs: nothing. It
// waits in the next Barrier like any MPI rank with no work.
func idleBody(*rankCtx, int, bool) {}

func pingPongBody(rc *rankCtx, spec phaseSpec) phaseBody {
	if rc.rank > 1 {
		return idleBody
	}
	seed := rc.job.seed
	sb := newBuf(spec.size, seed, 2*rc.rank)
	rb := newBuf(spec.size, seed, 2*rc.rank+1)
	fillBody(sb, seed, 0)
	var seq uint32
	if rc.rank == 0 {
		return func(rc *rankCtx, n int, warm bool) {
			rc.job.attempted.Add(int64(2 * n))
			t := time.Now()
			for i := 0; i < n; i++ {
				seq++
				rc.beginOp(seq)
				stamp(sb, seed, seq)
				rr := rc.irecv(rb, 1, tagPong)
				sr := rc.isend(sb, 1, tagPing)
				st := rc.wait(sr)
				rt := rc.wait(rr)
				rc.end()
				t2 := time.Now()
				rc.samples = append(rc.samples, int64(t2.Sub(t))/2) // half round trip
				t = t2
				if st.Err != nil || rt.Err != nil || rt.Bytes != spec.size || !checkEnds(rb, seed, seq) {
					rc.fail("pong %d: send %v recv %v bytes %d", seq, st.Err, rt.Err, rt.Bytes)
				}
				if warm || seq%fullCheckEvery == 0 {
					// The full comparison stays outside the timed span.
					if !checkBody(rb, seed, 0) {
						rc.fail("pong %d: body corrupted", seq)
					}
					t = time.Now()
				}
			}
			rc.settle(n)
		}
	}
	return func(rc *rankCtx, n int, warm bool) {
		for i := 0; i < n; i++ {
			seq++
			rc.beginOp(seq)
			rt := rc.wait(rc.irecv(rb, 0, tagPing))
			ok := rt.Err == nil && rt.Bytes == spec.size && checkEnds(rb, seed, seq)
			if ok && (warm || seq%fullCheckEvery == 0) {
				ok = checkBody(rb, seed, 0)
			}
			if !ok {
				rc.fail("ping %d: recv %v bytes %d or payload mismatch", seq, rt.Err, rt.Bytes)
			}
			stamp(sb, seed, seq)
			if st := rc.wait(rc.isend(sb, 0, tagPong)); st.Err != nil {
				rc.fail("pong %d: send %v", seq, st.Err)
			}
			rc.end()
		}
		rc.settle(n)
	}
}

func streamBody(rc *rankCtx, spec phaseSpec) phaseBody {
	if rc.rank > 1 {
		return idleBody
	}
	seed := rc.job.seed
	w := spec.window
	bufs := make([][]byte, w)
	for m := range bufs {
		bufs[m] = newBuf(spec.size, seed, 16+m+w*rc.rank)
		if rc.rank == 0 {
			fillBody(bufs[m], seed, m)
		}
	}
	ack := make([]byte, 1)
	reqs := make([]*mpix.Request, w)
	var seq uint32
	if rc.rank == 0 {
		return func(rc *rankCtx, n int, warm bool) {
			rc.job.attempted.Add(int64(n * w))
			for i := 0; i < n; i++ {
				rc.beginOp(seq)
				for m := 0; m < w; m++ {
					seq++
					stamp(bufs[m], seed, seq)
					reqs[m] = rc.isend(bufs[m], 1, tagData)
				}
				rc.waitAll(reqs)
				if st := rc.wait(rc.irecv(ack, 1, tagAck)); st.Err != nil {
					rc.fail("ack after %d: %v", seq, st.Err)
				}
				rc.end()
			}
			rc.settle(0)
		}
	}
	return func(rc *rankCtx, n int, warm bool) {
		for i := 0; i < n; i++ {
			rc.beginOp(seq)
			for m := 0; m < w; m++ {
				reqs[m] = rc.irecv(bufs[m], 0, tagData)
			}
			rc.waitAll(reqs)
			for m := 0; m < w; m++ {
				seq++
				st := reqs[m].Status()
				ok := st.Bytes == spec.size && checkEnds(bufs[m], seed, seq)
				if ok && (warm || seq%fullCheckEvery == 0) {
					ok = checkBody(bufs[m], seed, m)
				}
				if !ok {
					rc.fail("stream message %d: bytes %d or payload mismatch", seq, st.Bytes)
				}
			}
			if st := rc.wait(rc.isend(ack, 0, tagAck)); st.Err != nil {
				rc.fail("ack after %d: %v", seq, st.Err)
			}
			rc.end()
		}
		rc.settle(n * w)
	}
}

func allreduceBody(rc *rankCtx, spec phaseSpec) phaseBody {
	seed := rc.job.seed
	count := spec.size / 8
	send := newBuf(spec.size, seed, 64+2*rc.rank)
	recv := newBuf(spec.size, seed, 65+2*rc.rank)
	fillReduce(send, seed, rc.rank)
	var seq uint32
	return func(rc *rankCtx, n int, warm bool) {
		rc.job.attempted.Add(int64(n))
		for i := 0; i < n; i++ {
			seq++
			stampReduce(send, seed, rc.rank, seq)
			var err error
			t := time.Now()
			if rc.tr == nil {
				rc.comm.Allreduce(send, recv, count, mpix.Float64, mpix.OpSum)
			} else {
				rc.beginOp(seq)
				rc.begin(spColl)
				req := rc.comm.Iallreduce(send, recv, count, mpix.Float64, mpix.OpSum)
				rc.end()
				err = rc.wait(req).Err
				rc.end()
			}
			if rc.rank == 0 {
				rc.samples = append(rc.samples, int64(time.Since(t)))
			}
			if err != nil || !checkReduce(recv, seed, rc.ranks, seq, warm || seq%fullCheckEvery == 0) {
				rc.fail("allreduce %d: err %v or result differs from the closed form", seq, err)
			}
		}
		rc.settle(n)
	}
}

// dummyTask is the paper's dummy task (Listing 1.2/1.3): it completes
// when the clock passes finish, and the poll that observes this records
// how late the observation was.
type dummyTask struct {
	finish  time.Time
	out     *[]int64
	pending *int
}

func dummyPoll(th mpix.Thing) mpix.PollOutcome {
	d := th.State().(*dummyTask)
	late := time.Since(d.finish)
	if late < 0 {
		return mpix.NoProgress
	}
	*d.out = append(*d.out, int64(late))
	*d.pending--
	return mpix.Done
}

// progressBody is the paper's §4.1 / Fig. 7 measurement, re-implemented
// here: `window` dummy tasks pending on the NULL stream, one thread
// calling Progress, latency from each task's completion time to the
// poll that observed it. Rank 0 measures; other ranks have no work.
func progressBody(rc *rankCtx, spec phaseSpec) phaseBody {
	if rc.rank != 0 {
		return idleBody
	}
	tasks := make([]dummyTask, spec.window)
	var round uint32
	return func(rc *rankCtx, n int, warm bool) {
		rc.job.attempted.Add(int64(n * spec.window))
		for i := 0; i < n; i++ {
			round++
			rc.beginOp(round)
			pending := spec.window
			base := time.Now().Add(taskLifetime)
			for k := range tasks {
				stagger := time.Duration(mix(rc.job.seed+uint64(round)<<8+uint64(k)) % uint64(taskStagger))
				tasks[k] = dummyTask{finish: base.Add(stagger), out: &rc.samples, pending: &pending}
				rc.begin(spAsync)
				rc.p.AsyncStart(dummyPoll, &tasks[k], nil)
				rc.end()
			}
			for pending > 0 {
				rc.progressOnce()
			}
			rc.end()
		}
		rc.settle(n * spec.window)
	}
}

// contBody is the continuation workload: rank 1 streams windows of
// small messages, rank 0 posts the window's receives and observes their
// completion through one ContinueAll per window on a persistent
// ContinueRequest, then acks.
func contBody(rc *rankCtx, spec phaseSpec) phaseBody {
	if rc.rank > 1 {
		return idleBody
	}
	seed := rc.job.seed
	w := spec.window
	bufs := make([][]byte, w)
	for m := range bufs {
		bufs[m] = newBuf(spec.size, seed, 128+m+w*rc.rank)
	}
	ack := make([]byte, 1)
	reqs := make([]*mpix.Request, w)
	var seq uint32
	if rc.rank == 1 {
		return func(rc *rankCtx, n int, warm bool) {
			rc.job.attempted.Add(int64(n * w))
			for i := 0; i < n; i++ {
				for m := 0; m < w; m++ {
					seq++
					stamp(bufs[m], seed, seq)
					reqs[m] = rc.comm.IsendBytes(bufs[m], 0, tagData)
				}
				for _, st := range mpix.WaitAll(reqs...) {
					if st.Err != nil {
						rc.fail("cont send: %v", st.Err)
					}
				}
				if st := rc.comm.RecvBytes(ack, 0, tagAck); st.Err != nil {
					rc.fail("cont ack: %v", st.Err)
				}
			}
			rc.settle(0)
		}
	}
	cr := rc.p.ContinueInit()
	var fired atomic.Bool
	statuses := make([]mpix.Status, w)
	cb := func(sts []mpix.Status) {
		copy(statuses, sts)
		fired.Store(true)
	}
	return func(rc *rankCtx, n int, warm bool) {
		for i := 0; i < n; i++ {
			rc.beginOp(seq)
			for m := 0; m < w; m++ {
				reqs[m] = rc.irecv(bufs[m], 1, tagData)
			}
			if spec.kind == kindContPoll {
				pollAll(rc, reqs, statuses)
			} else {
				fired.Store(false)
				rc.begin(spCont)
				cr.ContinueAll(reqs, cb)
				cr.Start()
				rc.end()
				for !fired.Load() {
					rc.progressOnce()
				}
				if st := cr.Wait(); st.Err != nil {
					rc.fail("continuation aggregate: %v", st.Err)
				}
				cr.Reset()
			}
			for m := 0; m < w; m++ {
				seq++
				if statuses[m].Err != nil || statuses[m].Bytes != spec.size || !checkEnds(bufs[m], seed, seq) {
					rc.fail("cont message %d: %v bytes %d", seq, statuses[m].Err, statuses[m].Bytes)
				}
			}
			if st := rc.wait(rc.isend(ack, 1, tagAck)); st.Err != nil {
				rc.fail("cont ack: %v", st.Err)
			}
			rc.end()
		}
		rc.settle(n * w)
	}
}

// pollAll is the explicit alternative to a continuation: progress, then
// rescan the whole window with the one-atomic-load IsComplete.
func pollAll(rc *rankCtx, reqs []*mpix.Request, statuses []mpix.Status) {
	for {
		rc.progressOnce()
		all := true
		for _, r := range reqs {
			if !r.IsComplete() {
				all = false
				break
			}
		}
		if all {
			break
		}
	}
	for m, r := range reqs {
		statuses[m] = r.Status()
	}
}

// streamVCIBody is the window stream on spec.vcis stream communicators
// at once, each driven by its own goroutine on both ranks: the
// message-rate-versus-streams measurement of the MPIX Stream paper. VCI
// 0 is the NULL stream; the others get a stream of their own, freed
// when the rank leaves the job.
func streamVCIBody(rc *rankCtx, spec phaseSpec) phaseBody {
	if rc.rank > 1 {
		return idleBody
	}
	seed := rc.job.seed
	w := spec.window
	type lane struct {
		comm *mpix.Comm
		bufs [][]byte
		reqs []*mpix.Request
		seq  uint32
		bad  int64
	}
	lanes := make([]*lane, spec.vcis)
	for v := range lanes {
		ln := &lane{comm: rc.comm, reqs: make([]*mpix.Request, w)}
		if v > 0 {
			s := rc.p.StreamCreate()
			ln.comm = rc.comm.StreamComm(s)
			rc.cleanup = append(rc.cleanup, func() { rc.p.StreamFree(s) })
		}
		for m := 0; m < w; m++ {
			ln.bufs = append(ln.bufs, newBuf(spec.size, seed, 256+v*w+m))
		}
		lanes[v] = ln
	}
	run := func(ln *lane, n int) {
		a := make([]byte, 1)
		for i := 0; i < n; i++ {
			if rc.rank == 0 {
				for m := 0; m < w; m++ {
					ln.seq++
					stamp(ln.bufs[m], seed, ln.seq)
					ln.reqs[m] = ln.comm.IsendBytes(ln.bufs[m], 1, tagData)
				}
				mpix.WaitAll(ln.reqs...)
				if st := ln.comm.RecvBytes(a, 1, tagAck); st.Err != nil {
					ln.bad++
				}
				continue
			}
			for m := 0; m < w; m++ {
				ln.reqs[m] = ln.comm.IrecvBytes(ln.bufs[m], 0, tagData)
			}
			for m, st := range mpix.WaitAll(ln.reqs...) {
				ln.seq++
				if st.Err != nil || st.Bytes != spec.size || !checkEnds(ln.bufs[m], seed, ln.seq) {
					ln.bad++
				}
			}
			ln.comm.SendBytes(a, 0, tagAck)
		}
	}
	return func(rc *rankCtx, n int, warm bool) {
		if rc.rank == 0 {
			rc.job.attempted.Add(int64(n * w * spec.vcis))
		}
		var wg sync.WaitGroup
		for _, ln := range lanes {
			wg.Add(1)
			go func(ln *lane) {
				defer wg.Done()
				run(ln, n)
			}(ln)
		}
		wg.Wait()
		for v, ln := range lanes {
			if ln.bad > 0 {
				rc.nbad += ln.bad
				if rc.firstBad == "" {
					rc.firstBad = fmt.Sprintf("rank %d: %d bad messages on vci %d", rc.rank, ln.bad, v)
				}
				ln.bad = 0
			}
		}
		if rc.rank == 0 {
			rc.settle(0)
		} else {
			rc.settle(n * w * spec.vcis)
		}
	}
}
