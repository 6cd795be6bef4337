package mpi

import (
	"fmt"
	"slices"
	"sync"

	"gompix/internal/coll"
	"gompix/internal/datatype"
	"gompix/internal/nic"
	"gompix/internal/reduceop"
)

// This file wires the schedule-based collective algorithms
// (internal/coll) into communicators. Collective traffic travels on the
// communicator's collective context (ctx+1) so it can never match
// application point-to-point messages, and every invocation gets a
// fresh tag from a per-communicator sequence — legal because MPI
// requires all ranks to call collectives on a communicator in the same
// order.
//
// Barrier, Bcast, Reduce and Allreduce run from plans: the schedule,
// its scratch, the reduction closure and the completion callback are
// built once per signature and rearmed on every later call
// (Schedule.Bind and Reset), so a call costs its bytes and its hops —
// MPI-4's persistent collectives, applied inside the library. For a
// contiguous datatype the schedule runs in the caller's buffers: nothing
// is packed or unpacked. The other collectives build a schedule per
// call.

// collTransport adapts a Comm to coll.Transport.
type collTransport struct{ c *Comm }

func (t collTransport) Rank() int { return t.c.rank }
func (t collTransport) Size() int { return t.c.Size() }

// Isend hands data down under the rule user sends follow (sendPayload):
// the link reads the schedule's buffer itself, which is safe because a
// strict stage completes only when its sends have (see internal/coll's
// stage contract); small reliable sends keep a private copy. An aborted
// stage does not wait for its sends: it withdraws each one its receiver
// has not answered (Request.Cancel), so no late CTS reads the caller's
// buffer.
func (t collTransport) Isend(data []byte, dst, tag int) coll.Completable {
	if t.c.fstate.revoked.Load() {
		return t.c.failedReq(kindSend, ErrCommRevoked)
	}
	// Raw (lock-free) issuance: schedule stages run inside progress,
	// where the legacy global lock (Config.GlobalLock) is already held
	// — re-entering it would self-deadlock.
	return t.c.isendWireRaw(t.c.ctx+1, t.c.sendPayload(data, len(data), datatype.Byte), dst, tag)
}

func (t collTransport) Irecv(buf []byte, src, tag int) coll.Completable {
	if t.c.fstate.revoked.Load() {
		return t.c.failedReq(kindRecv, ErrCommRevoked)
	}
	return t.c.irecvRaw(t.c.ctx+1, buf, len(buf), datatype.Byte, src, tag)
}

// nextCollTag returns the tag for the next collective invocation.
func (c *Comm) nextCollTag() int {
	return int(c.collSeq.Add(1))
}

// hier returns the communicator's node decomposition when the two-level
// (node-aware) collective algorithms are worthwhile — at least two
// nodes exist and some node hosts several ranks — and nil otherwise,
// always on a transport without placement knowledge, where every rank
// is its own node. Computed once: placement is immutable for a world's
// lifetime. All ranks derive the same decomposition from the same
// topology, so algorithm selection stays collectively consistent.
func (c *Comm) hier() *coll.Hier {
	c.topoOnce.Do(func() {
		nodes := make([]int, len(c.ranks))
		for r, wr := range c.ranks {
			nodes[r] = c.proc.world.TopoNodeOf(wr)
		}
		if coll.HierWorthwhile(nodes) {
			c.topoHier = coll.NewHier(nodes)
		}
	})
	return c.topoHier
}

// refuseSched returns a failed request when the communicator cannot
// host a collective, nil when it can. ULFM collective semantics: a
// revoked communicator, or one with a failed member, cannot —
// membership, not addressing, condemns them (a stage can stall
// transitively without ever naming the dead rank). Users recover by
// Revoke + Shrink onto a survivor comm.
func (c *Comm) refuseSched() *Request {
	if c.fstate.revoked.Load() {
		return c.failedReq(kindSched, ErrCommRevoked)
	}
	if failed := c.FailedRanks(); len(failed) > 0 {
		return c.failedReq(kindSched,
			fmt.Errorf("%w: comm rank(s) %v", ErrProcFailed, failed))
	}
	return nil
}

// startSched tracks s and starts it on the communicator's stream, where
// it runs as an async thing. Tracking comes first so a revocation
// arriving mid-collective finds (and aborts) the schedule; addSched
// re-checks revoked after insertion to close the race with a concurrent
// sweep, and the FailedRanks re-check below does the same for a failure
// verdict landing between refuseSched and the insertion (whichever of
// submit and failPeer runs second sees the other's effect).
func (c *Comm) startSched(s *coll.Schedule) {
	c.fstate.addSched(s)
	if failed := c.FailedRanks(); len(failed) > 0 {
		s.Abort(fmt.Errorf("%w: comm rank(s) %v", ErrProcFailed, failed))
	}
	s.Start(c.local.stream)
}

// submitSched wraps a schedule built for one call in a user-visible
// request and starts it.
func (c *Comm) submitSched(s *coll.Schedule, onDone func()) *Request {
	if req := c.refuseSched(); req != nil {
		return req
	}
	req := &Request{kind: kindSched, vci: c.local, proc: c.proc}
	s.OnComplete(func() {
		c.fstate.removeSched(s)
		// A schedule aborted by a peer failure or a revocation must not
		// publish its result buffers: the collective's invariant (every
		// rank contributed) no longer holds.
		if err := s.Err(); err != nil {
			req.complete(Status{Err: err})
			return
		}
		if onDone != nil {
			onDone()
		}
		req.complete(Status{})
	})
	c.startSched(s)
	return req
}

func (c *Comm) transport() coll.Transport { return collTransport{c} }

// reducer builds the byte-level reduction closure for op over count
// elements of dt. It panics on a non-contiguous dt, at the call that
// names it: the kernels fold packed elements of a base type
// (reduceop.Apply), which a derived layout's bytes are not.
func reducer(op reduceop.Op, dt *datatype.Datatype, count int) func(inout, in []byte) {
	if !dt.Contig() {
		panic("mpi: reductions require a contiguous datatype")
	}
	return func(inout, in []byte) {
		n := count
		if max := len(inout) / dt.Size(); max < n {
			n = max // ring blocks reduce partial element ranges
		}
		reduceop.Apply(op, dt, inout, in, n)
	}
}

// packFor packs count elements of dt from buf into a fresh wire buffer.
func packFor(buf []byte, count int, dt *datatype.Datatype) []byte {
	wire := make([]byte, datatype.PackedSize(count, dt))
	datatype.Pack(wire, buf, count, dt)
	return wire
}

// planKind names the collectives that run from plans.
type planKind uint8

const (
	planBarrier planKind = iota
	planBcast
	planReduce
	planAllreduce
)

// planKey is a planned collective's signature: calls with equal keys on
// one communicator run the same schedule.
type planKey struct {
	kind  planKind
	count int
	dt    *datatype.Datatype
	op    reduceop.Op
	root  int
}

// collPlan is a collective built once for its signature: the schedule
// and its completion callback (finish, bound once). A run binds the
// call's buffers to the schedule (coll.Schedule.Bind), rearms it under
// a fresh tag and starts it. For a contiguous layout the schedule runs
// in the caller's buffers — sends straight from sendBuf, the result
// built in recvBuf — and the plan holds no buffer of its own; wire, the
// packed buffer the schedule runs in otherwise, exists only for a
// Bcast of a non-contiguous layout and for the accumulator of a
// non-root Reduce, which has no recvBuf. The plan belongs to its run until the run
// completes, and then holds no reference to the caller's buffers; only
// a clean completion gives it back to the communicator's cache. An
// aborted run completes only once none of its receives can write the
// caller's buffers any more (coll.Schedule.Abort), but its plan is
// dropped all the same: the cache keeps plans whose last run was whole.
type collPlan struct {
	c     *Comm
	key   planKey
	sched *coll.Schedule
	wire  []byte

	req *Request // the running call's request
	out []byte   // where a clean completion unpacks wire; nil: nowhere
}

// planCacheSize bounds the idle plans a communicator keeps; the least
// recently used one goes first.
const planCacheSize = 8

// planCache holds a communicator's idle plans, least recently used
// first. Two outstanding calls with one signature run two plans, and
// both come back.
type planCache struct {
	mu   sync.Mutex
	idle []*collPlan
}

// take removes and returns the most recently used idle plan for k, or
// nil.
func (pc *planCache) take(k planKey) *collPlan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for i := len(pc.idle) - 1; i >= 0; i-- {
		if p := pc.idle[i]; p.key == k {
			pc.idle = slices.Delete(pc.idle, i, i+1)
			return p
		}
	}
	return nil
}

// put returns a plan to the cache, evicting the least recently used
// one when full.
func (pc *planCache) put(p *collPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.idle) == planCacheSize {
		pc.idle = slices.Delete(pc.idle, 0, 1)
	}
	pc.idle = append(pc.idle, p)
}

// plan returns an idle plan for k, building one on a miss. A Bcast of
// a non-contiguous layout, or a non-root Reduce, gets its wire buffer
// here (reductions refuse a non-contiguous layout: reducer); any other
// runs in the buffers each call binds, and is built over result, the
// calling one's result buffer.
func (c *Comm) plan(k planKey, result []byte) *collPlan {
	if p := c.plans.take(k); p != nil {
		return p
	}
	p := &collPlan{c: c, key: k}
	n := 0
	if k.kind != planBarrier {
		n = datatype.PackedSize(k.count, k.dt)
		if !k.dt.Contig() || k.kind == planReduce && c.rank != k.root {
			p.wire = make([]byte, n)
		}
	}
	// The builders take the buffer they run in; each run binds its own,
	// so the length is all the schedule keeps of this one.
	buf := p.wire
	if buf == nil {
		buf = result[:n]
	}
	tr, h := c.transport(), c.hier()
	switch k.kind {
	case planBarrier:
		p.sched = coll.Barrier(tr, 0)
	case planBcast:
		switch {
		case h != nil:
			p.sched = h.Bcast(tr, buf, k.root, 0)
		case n >= bcastLongThreshold && c.Size() > 2:
			p.sched = coll.BcastScatterAllgather(tr, buf, k.root, 0)
		default:
			p.sched = coll.Bcast(tr, buf, k.root, 0)
		}
	case planReduce:
		red := reducer(k.op, k.dt, k.count)
		if h != nil {
			p.sched = h.Reduce(tr, buf, red, k.root, 0)
		} else {
			p.sched = coll.Reduce(tr, buf, red, k.root, 0)
		}
	case planAllreduce:
		red := reducer(k.op, k.dt, k.count)
		switch {
		case h != nil:
			p.sched = h.Allreduce(tr, buf, red, 0)
		case n >= ringThresholdBytes && k.count >= c.Size() && c.Size() > 2:
			p.sched = coll.AllreduceRing(tr, buf, k.dt.Size(), red, 0)
		default:
			p.sched = coll.AllreduceRecDbl(tr, buf, red, 0)
		}
	}
	p.sched.Bind(nil, nil)
	p.sched.OnComplete(p.finish)
	return p
}

// runPlan starts one call of a plan over in, the contribution (nil: in
// place), and out, where the schedule builds the result — the caller's
// buffers, or the plan's wire buffer with the contribution packed into
// it; a clean completion unpacks wire into unpack when that is set.
func (c *Comm) runPlan(p *collPlan, in, out, unpack []byte) *Request {
	tag := c.nextCollTag()
	if req := c.refuseSched(); req != nil {
		return req
	}
	req := &Request{kind: kindSched, vci: c.local, proc: c.proc}
	p.req, p.out = req, unpack
	p.sched.Bind(in, out)
	p.sched.Reset(tag)
	c.startSched(p.sched)
	return req
}

// finish is the plan's completion callback. It is the schedule's last
// touch of the plan: once put, the plan may be running the next call.
// A revocation or failure sweep that listed the previous run may still
// Abort the schedule after that; it can only do so on a communicator
// that is revoked or has a failed member, where the next run is
// condemned anyway.
func (p *collPlan) finish() {
	c, req, out := p.c, p.req, p.out
	p.req, p.out = nil, nil
	c.fstate.removeSched(p.sched)
	p.sched.Bind(nil, nil)
	// A schedule aborted by a peer failure or a revocation must not
	// publish its result: the collective's invariant (every rank
	// contributed) no longer holds.
	if err := p.sched.Err(); err != nil {
		req.complete(Status{Err: err})
		return
	}
	if out != nil {
		datatype.Unpack(out, p.wire, p.key.count, p.key.dt)
	}
	c.plans.put(p)
	req.complete(Status{})
}

// Ibarrier starts a nonblocking dissemination barrier (MPI_Ibarrier).
func (c *Comm) Ibarrier() *Request {
	return c.runPlan(c.plan(planKey{kind: planBarrier}, nil), nil, nil, nil)
}

// Barrier blocks until all ranks arrive (MPI_Barrier).
func (c *Comm) Barrier() { c.Ibarrier().Wait() }

// bcastLongThreshold selects the scatter-allgather broadcast for long
// messages, mirroring MPICH's size-based algorithm selection.
const bcastLongThreshold = 16 * 1024

// Ibcast starts a nonblocking broadcast of count elements of dt in buf
// from root (MPI_Ibcast): binomial tree for short messages,
// scatter-allgather for long ones.
func (c *Comm) Ibcast(buf []byte, count int, dt *datatype.Datatype, root int) *Request {
	c.checkRank(root)
	p := c.plan(planKey{kind: planBcast, count: count, dt: dt, root: root}, buf)
	switch {
	case p.wire == nil:
		return c.runPlan(p, nil, buf[:datatype.PackedSize(count, dt)], nil)
	case c.rank == root:
		datatype.Pack(p.wire, buf, count, dt)
		return c.runPlan(p, nil, p.wire, nil)
	}
	return c.runPlan(p, nil, p.wire, buf)
}

// Bcast is the blocking broadcast (MPI_Bcast).
func (c *Comm) Bcast(buf []byte, count int, dt *datatype.Datatype, root int) {
	c.Ibcast(buf, count, dt, root).Wait()
}

// Ireduce starts a binomial-tree reduction of sendBuf into recvBuf at
// root (MPI_Ireduce). recvBuf is only written on root. A nil sendBuf
// means MPI_IN_PLACE: root contributes recvBuf.
func (c *Comm) Ireduce(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op, root int) *Request {
	c.checkRank(root)
	if sendBuf == nil && c.rank != root {
		panic("mpi: in-place reduce requires sendBuf on non-root ranks")
	}
	p := c.plan(planKey{kind: planReduce, count: count, dt: dt, op: op, root: root}, recvBuf)
	n := datatype.PackedSize(count, dt)
	if sendBuf != nil {
		sendBuf = sendBuf[:n]
	}
	if c.rank == root {
		return c.runPlan(p, sendBuf, recvBuf[:n], nil)
	}
	// A non-root folds its children into the plan's accumulator.
	return c.runPlan(p, sendBuf, p.wire, nil)
}

// Reduce is the blocking reduction (MPI_Reduce).
func (c *Comm) Reduce(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op, root int) {
	c.Ireduce(sendBuf, recvBuf, count, dt, op, root).Wait()
}

// ringThresholdBytes selects the ring algorithm for long messages, as
// MPICH does.
const ringThresholdBytes = 16 * 1024

// Iallreduce starts a nonblocking allreduce (MPI_Iallreduce): recursive
// doubling for short messages, ring for long ones, the two-level scheme
// on a placement-aware transport. A nil sendBuf means MPI_IN_PLACE
// (recvBuf holds the contribution).
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op) *Request {
	p := c.plan(planKey{kind: planAllreduce, count: count, dt: dt, op: op}, recvBuf)
	n := datatype.PackedSize(count, dt)
	if sendBuf != nil {
		sendBuf = sendBuf[:n]
	}
	return c.runPlan(p, sendBuf, recvBuf[:n], nil)
}

// Allreduce is the blocking allreduce (MPI_Allreduce).
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op) {
	c.Iallreduce(sendBuf, recvBuf, count, dt, op).Wait()
}

// Iallgather starts a ring allgather (MPI_Iallgather): every rank
// contributes count elements of dt in sendBuf; recvBuf receives
// Size()*count elements ordered by rank. A nil sendBuf means
// MPI_IN_PLACE (the caller's block already sits in recvBuf).
func (c *Comm) Iallgather(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte) *Request {
	bs := datatype.PackedSize(count, dt)
	wire := make([]byte, bs*c.Size())
	if sendBuf != nil {
		datatype.Pack(wire[c.rank*bs:], sendBuf, count, dt)
	} else {
		datatype.Pack(wire[c.rank*bs:], recvBuf[c.rank*count*dt.Extent():], count, dt)
	}
	s := coll.AllgatherRing(c.transport(), wire, bs, c.nextCollTag())
	return c.submitSched(s, func() {
		datatype.Unpack(recvBuf, wire, count*c.Size(), dt)
	})
}

// Allgather is the blocking allgather (MPI_Allgather).
func (c *Comm) Allgather(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte) {
	c.Iallgather(sendBuf, count, dt, recvBuf).Wait()
}

// Iallgatherv starts a ring allgather with per-rank counts
// (MPI_Iallgatherv): rank i contributes counts[i] elements of dt;
// recvBuf receives them at element displacement displs[i].
func (c *Comm) Iallgatherv(sendBuf []byte, sendCount int, dt *datatype.Datatype, recvBuf []byte, counts, displs []int) *Request {
	p := c.Size()
	if len(counts) != p || len(displs) != p {
		panic("mpi: counts/displs length must equal communicator size")
	}
	if sendCount != counts[c.rank] {
		panic("mpi: sendCount must equal counts[rank]")
	}
	size := dt.Size()
	wireLen := 0
	offs := make([]int, p)
	lens := make([]int, p)
	for r := 0; r < p; r++ {
		offs[r] = displs[r] * size
		lens[r] = counts[r] * size
		if end := offs[r] + lens[r]; end > wireLen {
			wireLen = end
		}
	}
	wire := make([]byte, wireLen)
	datatype.Pack(wire[offs[c.rank]:], sendBuf, sendCount, dt)
	s := coll.AllgatherVRing(c.transport(), wire, offs, lens, c.nextCollTag())
	return c.submitSched(s, func() {
		for r := 0; r < p; r++ {
			datatype.Unpack(recvBuf[displs[r]*dt.Extent():], wire[offs[r]:offs[r]+lens[r]], counts[r], dt)
		}
	})
}

// Allgatherv is the blocking form (MPI_Allgatherv).
func (c *Comm) Allgatherv(sendBuf []byte, sendCount int, dt *datatype.Datatype, recvBuf []byte, counts, displs []int) {
	c.Iallgatherv(sendBuf, sendCount, dt, recvBuf, counts, displs).Wait()
}

// Igatherv starts a linear gather with per-rank counts (MPI_Igatherv).
func (c *Comm) Igatherv(sendBuf []byte, sendCount int, dt *datatype.Datatype, recvBuf []byte, counts, displs []int, root int) *Request {
	c.checkRank(root)
	p := c.Size()
	size := dt.Size()
	block := packFor(sendBuf, sendCount, dt)
	var wire []byte
	offs := make([]int, p)
	lens := make([]int, p)
	wireLen := 0
	for r := 0; r < p; r++ {
		offs[r] = displs[r] * size
		lens[r] = counts[r] * size
		if end := offs[r] + lens[r]; end > wireLen {
			wireLen = end
		}
	}
	if c.rank == root {
		wire = make([]byte, wireLen)
	}
	s := coll.GatherV(c.transport(), block, wire, offs, lens, root, c.nextCollTag())
	var onDone func()
	if c.rank == root {
		onDone = func() {
			for r := 0; r < p; r++ {
				datatype.Unpack(recvBuf[displs[r]*dt.Extent():], wire[offs[r]:offs[r]+lens[r]], counts[r], dt)
			}
		}
	}
	return c.submitSched(s, onDone)
}

// Gatherv is the blocking form (MPI_Gatherv).
func (c *Comm) Gatherv(sendBuf []byte, sendCount int, dt *datatype.Datatype, recvBuf []byte, counts, displs []int, root int) {
	c.Igatherv(sendBuf, sendCount, dt, recvBuf, counts, displs, root).Wait()
}

// Iscatterv starts a linear scatter with per-rank counts
// (MPI_Iscatterv): rank i receives counts[i] elements taken from
// root's sendBuf at element displacement displs[i].
func (c *Comm) Iscatterv(sendBuf []byte, counts, displs []int, dt *datatype.Datatype, recvBuf []byte, recvCount, root int) *Request {
	c.checkRank(root)
	p := c.Size()
	size := dt.Size()
	offs := make([]int, p)
	lens := make([]int, p)
	wireLen := 0
	for r := 0; r < p; r++ {
		offs[r] = displs[r] * size
		lens[r] = counts[r] * size
		if end := offs[r] + lens[r]; end > wireLen {
			wireLen = end
		}
	}
	var wire []byte
	if c.rank == root {
		wire = make([]byte, wireLen)
		for r := 0; r < p; r++ {
			datatype.Pack(wire[offs[r]:], sendBuf[displs[r]*dt.Extent():], counts[r], dt)
		}
	}
	recvWire := make([]byte, recvCount*size)
	s := coll.ScatterV(c.transport(), wire, recvWire, offs, lens, root, c.nextCollTag())
	return c.submitSched(s, func() {
		datatype.Unpack(recvBuf, recvWire, recvCount, dt)
	})
}

// Scatterv is the blocking form (MPI_Scatterv).
func (c *Comm) Scatterv(sendBuf []byte, counts, displs []int, dt *datatype.Datatype, recvBuf []byte, recvCount, root int) {
	c.Iscatterv(sendBuf, counts, displs, dt, recvBuf, recvCount, root).Wait()
}

// Ialltoall starts a pairwise-exchange all-to-all (MPI_Ialltoall):
// block i of sendBuf goes to rank i; block j of recvBuf arrives from
// rank j. Blocks are count elements of dt.
func (c *Comm) Ialltoall(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte) *Request {
	bs := datatype.PackedSize(count, dt)
	p := c.Size()
	sendWire := packFor(sendBuf, count*p, dt)
	recvWire := make([]byte, bs*p)
	s := coll.Alltoall(c.transport(), sendWire, recvWire, bs, c.nextCollTag())
	return c.submitSched(s, func() {
		datatype.Unpack(recvBuf, recvWire, count*p, dt)
	})
}

// Alltoall is the blocking all-to-all (MPI_Alltoall).
func (c *Comm) Alltoall(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte) {
	c.Ialltoall(sendBuf, count, dt, recvBuf).Wait()
}

// Igather starts a linear gather to root (MPI_Igather). recvBuf is only
// used on root and receives Size()*count elements ordered by rank.
func (c *Comm) Igather(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte, root int) *Request {
	c.checkRank(root)
	bs := datatype.PackedSize(count, dt)
	block := packFor(sendBuf, count, dt)
	var recvWire []byte
	if c.rank == root {
		recvWire = make([]byte, bs*c.Size())
	}
	var s *coll.Schedule
	if c.Size() > 8 {
		s = coll.GatherBinomial(c.transport(), block, recvWire, bs, root, c.nextCollTag())
	} else {
		s = coll.Gather(c.transport(), block, recvWire, bs, root, c.nextCollTag())
	}
	var onDone func()
	if c.rank == root {
		onDone = func() { datatype.Unpack(recvBuf, recvWire, count*c.Size(), dt) }
	}
	return c.submitSched(s, onDone)
}

// Gather is the blocking gather (MPI_Gather).
func (c *Comm) Gather(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte, root int) {
	c.Igather(sendBuf, count, dt, recvBuf, root).Wait()
}

// Iscatter starts a linear scatter from root (MPI_Iscatter): block i of
// sendBuf (root only) goes to rank i's recvBuf.
func (c *Comm) Iscatter(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte, root int) *Request {
	c.checkRank(root)
	bs := datatype.PackedSize(count, dt)
	var sendWire []byte
	if c.rank == root {
		sendWire = packFor(sendBuf, count*c.Size(), dt)
	}
	recvWire := make([]byte, bs)
	var s *coll.Schedule
	if c.Size() > 8 {
		s = coll.ScatterBinomial(c.transport(), sendWire, recvWire, bs, root, c.nextCollTag())
	} else {
		s = coll.Scatter(c.transport(), sendWire, recvWire, bs, root, c.nextCollTag())
	}
	return c.submitSched(s, func() {
		datatype.Unpack(recvBuf, recvWire, count, dt)
	})
}

// Scatter is the blocking scatter (MPI_Scatter).
func (c *Comm) Scatter(sendBuf []byte, count int, dt *datatype.Datatype, recvBuf []byte, root int) {
	c.Iscatter(sendBuf, count, dt, recvBuf, root).Wait()
}

// IreduceScatterBlock starts a pairwise-exchange reduce-scatter
// (MPI_Ireduce_scatter_block): every rank contributes Size()*count
// elements of dt in sendBuf; recvBuf receives this rank's count-element
// block of the elementwise reduction. There is no in-place form: a nil
// sendBuf panics.
func (c *Comm) IreduceScatterBlock(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op) *Request {
	if sendBuf == nil {
		panic("mpi: IreduceScatterBlock requires an explicit sendBuf")
	}
	p := c.Size()
	bs := datatype.PackedSize(count, dt)
	wire := packFor(sendBuf, count*p, dt)
	s := coll.ReduceScatterBlock(c.transport(), wire, bs, reducer(op, dt, count), c.nextCollTag())
	rank := c.rank
	return c.submitSched(s, func() {
		datatype.Unpack(recvBuf, wire[rank*bs:(rank+1)*bs], count, dt)
	})
}

// ReduceScatterBlock is the blocking form (MPI_Reduce_scatter_block).
func (c *Comm) ReduceScatterBlock(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op) {
	c.IreduceScatterBlock(sendBuf, recvBuf, count, dt, op).Wait()
}

// Iscan starts an inclusive prefix reduction (MPI_Iscan): recvBuf on
// rank r receives the reduction over ranks 0..r. A nil sendBuf means
// MPI_IN_PLACE. The schedule runs in the caller's buffers: it sends
// from sendBuf and builds the result in recvBuf.
func (c *Comm) Iscan(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op) *Request {
	red := reducer(op, dt, count)
	n := datatype.PackedSize(count, dt)
	if sendBuf != nil {
		sendBuf = sendBuf[:n]
	}
	s := coll.Scan(c.transport(), recvBuf[:n], red, c.nextCollTag())
	s.Bind(sendBuf, recvBuf[:n])
	return c.submitSched(s, nil)
}

// Scan is the blocking inclusive scan (MPI_Scan).
func (c *Comm) Scan(sendBuf, recvBuf []byte, count int, dt *datatype.Datatype, op reduceop.Op) {
	c.Iscan(sendBuf, recvBuf, count, dt, op).Wait()
}

// isendWireOn / irecvOn route raw bytes on an explicit context id
// (pt2pt context or collective context). A revoked communicator
// rejects new operations at initiation (ULFM semantics); the
// fault-tolerance protocol itself uses ftIsend/ftIrecv, which bypass
// the check.
func (c *Comm) isendWireOn(ctx uint32, wire []byte, dst, tag int) *Request {
	defer c.proc.enterMPI()()
	if c.fstate.revoked.Load() {
		return c.failedReq(kindSend, ErrCommRevoked)
	}
	return c.isendWireRaw(ctx, wire, dst, tag)
}

func (c *Comm) irecvOn(ctx uint32, buf []byte, count int, dt *datatype.Datatype, src, tag int) *Request {
	defer c.proc.enterMPI()()
	if c.fstate.revoked.Load() {
		return c.failedReq(kindRecv, ErrCommRevoked)
	}
	return c.irecvRaw(ctx, buf, count, dt, src, tag)
}

// isendWireRaw issues a send without taking the legacy global lock;
// used by internal subsystems that run inside progress.
func (c *Comm) isendWireRaw(ctx uint32, wire []byte, dst, tag int) *Request {
	c.checkRank(dst)
	req := &Request{kind: kindSend, vci: c.local, proc: c.proc}
	if err := c.local.match.peerErr(c.ranks[dst]); err != nil {
		c.local.trace("send.failed", "peer process failed at initiation")
		req.complete(Status{Err: err})
		return req
	}
	hdr := wireHdr{src: c.rank, ctx: ctx, tag: tag, bytes: len(wire)}
	c.local.isendNet(req, c.eps[dst], hdr, wire)
	return req
}

// irecvRaw posts a receive without taking the legacy global lock.
func (c *Comm) irecvRaw(ctx uint32, buf []byte, count int, dt *datatype.Datatype, src, tag int) *Request {
	if src != AnySource {
		c.checkRank(src)
	}
	req := &Request{
		kind: kindRecv, vci: c.local, proc: c.proc,
		recvBuf: buf, recvCount: count, recvDT: dt,
		ctxID: ctx,
	}
	if c.local.tracing() {
		c.local.trace("recv.posted", fmt.Sprintf("src=%d tag=%d", src, tag))
	}
	worldSrc := -1
	if src != AnySource {
		worldSrc = c.ranks[src]
	}
	e, matched, derr := c.local.match.postRecv(req, ctx, src, tag, worldSrc)
	if derr != nil {
		c.local.trace("recv.failed", "peer process failed at initiation")
		req.complete(Status{Err: derr})
		return req
	}
	if !matched {
		return req
	}
	c.local.trace("recv.match.unexpected", "")
	switch e.kind {
	case unexpEager:
		deliverEager(req, e.src, e.tag, e.data)
		nic.PutStaging(e.stage)
	case unexpRTS:
		c.local.answerRTS(req, e)
	default:
		panic(fmt.Sprintf("mpi: unknown unexpected entry kind %d", e.kind))
	}
	return req
}
