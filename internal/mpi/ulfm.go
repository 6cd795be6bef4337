package mpi

// Fault-tolerant communicators in the ULFM style (MPIX_Comm_revoke /
// MPIX_Comm_shrink / MPIX_Comm_agree, per "Designing and Prototyping
// Extensions to MPI in MPICH", Zhou et al.). PR 5 made a rank's death a
// detectable, non-hanging event (ErrProcFailed); this layer adds the
// recovery half: survivors revoke the wounded communicator so every
// rank stops trusting it, agree on who is still alive, and derive a
// shrunken communicator to continue on.
//
// Revocation: Comm.Revoke flips the communicator's revoked flag,
// floods a kindRevokeMsg control frame to every peer (so remote ranks
// learn even mid-collective), and sweeps the local engine — posted
// receives, queued unexpected traffic, rendezvous sends still awaiting
// their CTS, and in-flight collective schedules all complete with
// ErrCommRevoked. A rank that learns of the revocation from the frame
// re-floods it once, so the revocation survives the revoker itself
// dying mid-flood.
//
// Agreement (Agree, and Shrink's membership/context decision) runs a
// flood-set consensus over the communicator: n synchronous rounds
// (n = Size(), tolerating up to n-1 crash failures), each round every
// live rank sending its full state to every peer it has not recorded
// as dead and merging what it receives; a failed receive marks the
// sender dead. The protocol relies on the failure detector being
// accurate — a verdict names a rank this one can never reach again
// (tcp's lost connection, shm's released alive lock, a
// simulated partition that never heals: DESIGN §6) — and eventually
// complete (a crashed process's sockets die at every peer).
// Decisions are taken ONLY from the set of ranks whose records became
// known: with at most n-1 crashes and n
// rounds, some round is crash-free, after which every live rank holds
// the identical record set and no new record can enter — so the known
// set is agreed even though late-round death *observations* may not
// be. A rank that dies after its record spread is therefore included
// in a Shrink (a concurrent failure, resolved by the next Shrink),
// exactly as ULFM permits.
//
// The protocol's own traffic rides the collective context (ctx+1)
// with tags at or above ftTagBase, which both the revocation sweep and
// the matcher's failCtx exempt: Agree and Shrink MUST keep working on
// a revoked communicator. FT payloads are 9 bytes per rank plus a dead
// bitmap, far under the eager threshold, so they never enter the
// rendezvous handle tables (worlds beyond ~7000 ranks would need a
// tag-aware sweep there too).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gompix/internal/coll"
	"gompix/internal/datatype"
	"gompix/internal/fabric"
	"gompix/internal/metrics"
)

// ErrCommRevoked reports that the communicator an operation ran on was
// revoked (MPIX_Comm_revoke): a rank observed a failure and withdrew
// the communicator from service. Pending operations complete with it
// and new operations fail at initiation. It is distinct from
// ErrProcFailed — a revoked communicator's peers are not necessarily
// dead — and is matched with errors.Is.
var ErrCommRevoked = errors.New("mpi: communicator revoked")

// inCtx reports whether traffic on context c with tag belongs to the
// communicator whose pt2pt context is ctx and is revoked with it: its
// pt2pt context, and its collective context below ftTagBase.
func inCtx(ctx, c uint32, tag int) bool {
	return c == ctx || (c == ctx+1 && tag < ftTagBase)
}

// ftTagBase is the tag floor for the fault-tolerance protocol's own
// messages on the collective context. Revocation sweeps exempt tags at
// or above it so Agree/Shrink keep working on a revoked communicator.
// User and collective tags never reach it (collective tags count up
// from 1 per communicator).
const ftTagBase = 1 << 30

// commFailState is the per-communicator fault-tolerance state,
// embedded in Comm by value (zero value ready).
type commFailState struct {
	// revoked flips once, via applyRevoke's CAS; checked at every
	// initiation site.
	revoked atomic.Bool

	// ftSeq numbers this communicator's Agree/Shrink invocations, which
	// (like all collectives) every rank must issue in the same order.
	ftSeq atomic.Int64

	mu     sync.Mutex
	acked  map[int]bool // comm ranks acknowledged via AckFailed
	scheds map[*coll.Schedule]struct{}

	// relaxedScheds tracks in-flight relaxed (quorum) collectives.
	// They are kept apart from scheds because the two react to peer
	// death differently: a revocation aborts both sets, but a peer
	// failure aborts only the strict set — a relaxed round tolerates
	// dead peers by design (the quorum shrinks and the round settles on
	// survivors, surfacing ErrProcFailed in its RelaxedResult).
	relaxedScheds map[*coll.Schedule]struct{}
}

// addSched tracks an in-flight collective schedule so a revocation can
// abort it. The revoked re-check after insertion closes the race with
// a concurrent sweep: whichever of (submit, sweep) runs second sees
// the other's effect and the schedule is aborted either way.
func (f *commFailState) addSched(s *coll.Schedule) {
	f.mu.Lock()
	if f.scheds == nil {
		f.scheds = make(map[*coll.Schedule]struct{})
	}
	f.scheds[s] = struct{}{}
	f.mu.Unlock()
	if f.revoked.Load() {
		s.Abort(ErrCommRevoked)
	}
}

func (f *commFailState) removeSched(s *coll.Schedule) {
	f.mu.Lock()
	delete(f.scheds, s)
	f.mu.Unlock()
}

// addRelaxedSched tracks an in-flight relaxed collective, with the
// same revoked re-check race closure as addSched.
func (f *commFailState) addRelaxedSched(s *coll.Schedule) {
	f.mu.Lock()
	if f.relaxedScheds == nil {
		f.relaxedScheds = make(map[*coll.Schedule]struct{})
	}
	f.relaxedScheds[s] = struct{}{}
	f.mu.Unlock()
	if f.revoked.Load() {
		s.Abort(ErrCommRevoked)
	}
}

func (f *commFailState) removeRelaxedSched(s *coll.Schedule) {
	f.mu.Lock()
	delete(f.relaxedScheds, s)
	f.mu.Unlock()
}

// abortRelaxedScheds flags every tracked relaxed schedule. Called only
// on revocation — peer failure deliberately leaves relaxed rounds
// running (see the relaxedScheds field comment).
func (f *commFailState) abortRelaxedScheds(err error) {
	f.mu.Lock()
	scheds := make([]*coll.Schedule, 0, len(f.relaxedScheds))
	for s := range f.relaxedScheds {
		scheds = append(scheds, s)
	}
	f.mu.Unlock()
	for _, s := range scheds {
		s.Abort(err)
	}
}

// abortScheds flags every tracked schedule; each one's next poll, in
// its stream's next pass, completes it with err.
func (f *commFailState) abortScheds(err error) {
	f.mu.Lock()
	scheds := make([]*coll.Schedule, 0, len(f.scheds))
	for s := range f.scheds {
		scheds = append(scheds, s)
	}
	f.mu.Unlock()
	for _, s := range scheds {
		s.Abort(err)
	}
}

// commMetrics counts per-rank fault-tolerance events
// (rankN.comm.revokes/shrinks/agrees).
type commMetrics struct {
	reg     *metrics.Registry
	revokes *metrics.Counter
	shrinks *metrics.Counter
	agrees  *metrics.Counter
}

func newCommMetrics(reg *metrics.Registry, rank int) *commMetrics {
	return &commMetrics{
		reg:     reg,
		revokes: reg.Counter(fmt.Sprintf("rank%d.comm.revokes", rank)),
		shrinks: reg.Counter(fmt.Sprintf("rank%d.comm.shrinks", rank)),
		agrees:  reg.Counter(fmt.Sprintf("rank%d.comm.agrees", rank)),
	}
}

// registerComm records a communicator in the proc's context table so an
// arriving revoke frame can be attributed; a revocation that arrived
// before the communicator finished constructing (stashRevoke) is
// applied now. Every communicator constructor routes through here.
func (p *Proc) registerComm(c *Comm) *Comm {
	if c == nil {
		return nil
	}
	p.mu.Lock()
	if p.commTab == nil {
		p.commTab = make(map[uint32]*Comm)
	}
	p.commTab[c.ctx] = c
	pending := p.pendingRevoke[c.ctx]
	delete(p.pendingRevoke, c.ctx)
	p.mu.Unlock()
	if pending {
		c.applyRevoke(false)
	}
	return c
}

// lookupComm resolves a context id to the registered communicator.
func (p *Proc) lookupComm(ctx uint32) *Comm {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commTab[ctx]
}

// commsWithWorldRank returns every registered communicator whose
// membership includes the given world rank — the set a failure verdict
// for that rank condemns (failPeer aborts their in-flight schedules).
func (p *Proc) commsWithWorldRank(wr int) []*Comm {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Comm
	for _, c := range p.commTab {
		for _, r := range c.ranks {
			if r == wr {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// stashRevoke records a revocation for a context this rank has not
// registered yet (the peer finished creating the communicator, used
// it, and revoked it before our creation collective returned).
func (p *Proc) stashRevoke(ctx uint32) {
	p.mu.Lock()
	if p.pendingRevoke == nil {
		p.pendingRevoke = make(map[uint32]bool)
	}
	p.pendingRevoke[ctx] = true
	p.mu.Unlock()
}

// Revoke marks the communicator revoked (MPIX_Comm_revoke) and
// propagates the revocation to every peer. Unlike other operations it
// is NOT collective: any single rank revokes for everyone. Pending
// operations on the communicator complete with ErrCommRevoked and new
// ones fail at initiation; only the recovery operations (Agree,
// Shrink, FailedRanks, AckFailed) keep working. Idempotent.
func (c *Comm) Revoke() {
	defer c.proc.enterMPI()()
	c.applyRevoke(false)
}

// Revoked reports whether the communicator has been revoked (locally
// observed; propagation from a remote Revoke arrives via progress).
func (c *Comm) Revoked() bool { return c.fstate.revoked.Load() }

// applyRevoke performs the one-time revocation transition: flag, flood,
// sweep. inProgress reports whether the caller already runs under the
// communicator's stream lock (a protocol handler); otherwise the sweep
// is deferred to that stream's next pass (core.Stream.Defer), which runs
// it under the stream lock: the send-table sweep must not race the
// stream's own rendezvous progress.
func (c *Comm) applyRevoke(inProgress bool) {
	if !c.fstate.revoked.CompareAndSwap(false, true) {
		return
	}
	if m := c.proc.cmet; m != nil && m.reg.On() {
		m.revokes.Inc()
	}
	if c.local.tracing() {
		c.local.trace("comm.revoked", fmt.Sprintf("ctx=%d", c.ctx))
	}
	c.floodRevoke()
	if inProgress {
		c.local.revokeSweep(c)
	} else {
		c.local.stream.Defer(func() { c.local.revokeSweep(c) })
	}
}

// floodRevoke sends the revocation control frame to every other rank.
// The frames are tiny and fire-and-forget (a dead peer needs no
// notification); each target gets a fresh header because a post takes
// its header over. It rides the same link, in the same order, as the
// data and fault-tolerance traffic around it.
func (c *Comm) floodRevoke() {
	for dst := range c.ranks {
		if dst == c.rank {
			continue
		}
		h := newHdr()
		*h = wireHdr{kind: kindRevokeMsg, src: c.rank, ctx: c.ctx}
		c.local.postInline(c.eps[dst], h, ctrlBytes)
	}
}

// handleRevoke processes an arrived kindRevokeMsg: attribute it to a
// communicator (or stash it for one still being created) and apply the
// revocation. The first remote learner re-floods, so the revocation
// reaches everyone even if the revoker died mid-flood.
func (v *VCI) handleRevoke(h *wireHdr) {
	c := v.proc.lookupComm(h.ctx)
	if c == nil {
		v.proc.stashRevoke(h.ctx)
		return
	}
	c.applyRevoke(c.local == v)
}

// revokeSweep fails everything pending on a revoked communicator. It
// must run under the communicator's stream lock (progress context):
//
//   - matcher: posted receives on ctx (and on ctx+1 below ftTagBase)
//     complete with ErrCommRevoked; matching unexpected entries drop,
//     and each advertised RTS among them is answered with a finRevoked
//     FIN: its sender waits for that answer.
//   - send table (the one sweep, VCI.sweep, as for a verdict):
//     rendezvous sends still awaiting their CTS fail through rndvFail;
//     a CTS that arrives for one later finds no handle and is answered
//     with an abort.
//     Sends already mid-data left the table at their CTS and complete
//     naturally (the data is flowing anyway; delivery beats a hang).
//     Advertised sends stay: the receiver may be reading the buffer
//     right now, and only its answer (or its verdict) completes them.
//   - receive table: rendezvous receives awaiting data chunks — a CTS
//     sent, whether or not its sender has aborted since — complete
//     with ErrCommRevoked (their sender sweeps symmetrically) — when the
//     chunk a transport thread may still be writing into the buffer
//     lets go of it, if there is one (holdLocked).
//   - schedules: in-flight collectives abort with ErrCommRevoked.
//
// Completions run outside the matching and handle-table locks.
func (v *VCI) revokeSweep(c *Comm) {
	ctx := c.ctx
	reqs, rts := v.match.failCtx(ctx)
	for _, e := range rts {
		v.postFin(e.srcEP, e.sreqID, finRevoked, e.flow)
	}
	for _, req := range reqs {
		v.trace("recv.failed", "posted receive: communicator revoked")
		req.complete(Status{Err: ErrCommRevoked})
	}
	v.sweep(func(st *netSendState) bool { return !st.advertised && inCtx(ctx, st.ctx, st.tag) },
		func(req *Request) bool { return inCtx(ctx, req.ctxID, req.status.Tag) }, ErrCommRevoked)
	c.fstate.abortScheds(ErrCommRevoked)
	c.fstate.abortRelaxedScheds(ErrCommRevoked)
}

// failedReq returns a request pre-completed with err (an operation
// rejected at initiation).
func (c *Comm) failedReq(kind reqKind, err error) *Request {
	req := &Request{kind: kind, vci: c.local, proc: c.proc}
	req.complete(Status{Err: err})
	return req
}

// FailedRanks returns the communicator ranks for which this process
// holds a failure verdict, ascending (MPIX_Comm_failure_get_acked over
// the live detector state). Purely local: ranks may hold different
// views until an Agree or Shrink synchronizes them.
func (c *Comm) FailedRanks() []int {
	world := c.local.match.deadRanks()
	if len(world) == 0 {
		return nil
	}
	dead := make(map[int]bool, len(world))
	for _, wr := range world {
		dead[wr] = true
	}
	var out []int
	for cr, wr := range c.ranks {
		if dead[wr] {
			out = append(out, cr)
		}
	}
	return out
}

// AckFailed acknowledges every currently-known failed rank
// (MPIX_Comm_failure_ack) and returns them: subsequent Agree calls no
// longer raise ErrProcFailed for these ranks.
func (c *Comm) AckFailed() []int {
	failed := c.FailedRanks()
	c.fstate.mu.Lock()
	if c.fstate.acked == nil {
		c.fstate.acked = make(map[int]bool)
	}
	for _, r := range failed {
		c.fstate.acked[r] = true
	}
	c.fstate.mu.Unlock()
	return failed
}

// unackedFailures returns currently-known failed ranks not yet covered
// by AckFailed.
func (c *Comm) unackedFailures() []int {
	failed := c.FailedRanks()
	if len(failed) == 0 {
		return nil
	}
	c.fstate.mu.Lock()
	defer c.fstate.mu.Unlock()
	var out []int
	for _, r := range failed {
		if !c.fstate.acked[r] {
			out = append(out, r)
		}
	}
	return out
}

// ackedRank reports whether a comm rank's failure has been
// acknowledged.
func (c *Comm) ackedRank(r int) bool {
	c.fstate.mu.Lock()
	defer c.fstate.mu.Unlock()
	return c.fstate.acked[r]
}

// ---------------------------------------------------------------------------
// Flood-set exchange: the consensus substrate under Agree and Shrink.

// ftState is one rank's view of the exchange: per-rank records
// (known?, err?, flag, cand) plus a dead bitmap.
type ftState struct {
	n     int
	known []bool
	errs  []bool // contributor had unacknowledged failures at call time
	flags []uint32
	cands []uint32
	dead  []uint64
}

const ftRecBytes = 9 // [known/err byte][flag u32][cand u32]

func ftEncodedSize(n int) int { return n*ftRecBytes + ((n+63)/64)*8 }

func newFTState(n int) *ftState {
	return &ftState{
		n:     n,
		known: make([]bool, n),
		errs:  make([]bool, n),
		flags: make([]uint32, n),
		cands: make([]uint32, n),
		dead:  make([]uint64, (n+63)/64),
	}
}

func (s *ftState) markDead(r int)    { s.dead[r/64] |= 1 << (uint(r) % 64) }
func (s *ftState) isDead(r int) bool { return s.dead[r/64]&(1<<(uint(r)%64)) != 0 }

func (s *ftState) set(r int, flag, cand uint32, errbit bool) {
	s.known[r] = true
	s.errs[r] = errbit
	s.flags[r] = flag
	s.cands[r] = cand
}

func (s *ftState) encode() []byte {
	out := make([]byte, ftEncodedSize(s.n))
	for r := 0; r < s.n; r++ {
		o := r * ftRecBytes
		if s.known[r] {
			out[o] = 1
			if s.errs[r] {
				out[o] |= 2
			}
		}
		binary.LittleEndian.PutUint32(out[o+1:], s.flags[r])
		binary.LittleEndian.PutUint32(out[o+5:], s.cands[r])
	}
	base := s.n * ftRecBytes
	for i, w := range s.dead {
		binary.LittleEndian.PutUint64(out[base+i*8:], w)
	}
	return out
}

// merge folds a peer's encoded state in: unknown records are copied
// (records are immutable once contributed, so first-copy wins is
// sound) and dead bitmaps are OR-ed.
func (s *ftState) merge(b []byte) error {
	if len(b) < ftEncodedSize(s.n) {
		return fmt.Errorf("mpi: short fault-tolerance state (%d bytes, want %d)", len(b), ftEncodedSize(s.n))
	}
	for r := 0; r < s.n; r++ {
		o := r * ftRecBytes
		if b[o]&1 != 0 && !s.known[r] {
			s.set(r, binary.LittleEndian.Uint32(b[o+1:]), binary.LittleEndian.Uint32(b[o+5:]), b[o]&2 != 0)
		}
	}
	base := s.n * ftRecBytes
	for i := range s.dead {
		s.dead[i] |= binary.LittleEndian.Uint64(b[base+i*8:])
	}
	return nil
}

// ftIsend / ftIrecv route protocol traffic on the collective context
// with FT tags, bypassing the revoked-communicator initiation checks
// (recovery must run on a revoked communicator) while keeping the
// dead-peer checks (a verdict fails the op immediately — that is the
// signal the exchange consumes).
func (c *Comm) ftIsend(wire []byte, dst, tag int) *Request {
	defer c.proc.enterMPI()()
	return c.isendWireRaw(c.ctx+1, wire, dst, tag)
}

func (c *Comm) ftIrecv(buf []byte, src, tag int) *Request {
	defer c.proc.enterMPI()()
	return c.irecvRaw(c.ctx+1, buf, len(buf), datatype.Byte, src, tag)
}

// ftExchange runs the n-round flood-set protocol (see the file
// comment) and returns this rank's final state. flag and cand are this
// rank's contributions (Agree's value; Shrink's candidate context).
// Collective over the communicator's survivors: every live rank must
// call the same sequence of Agree/Shrink operations.
func (c *Comm) ftExchange(flag, cand uint32) *ftState {
	n := c.Size()
	st := newFTState(n)
	st.set(c.rank, flag, cand, len(c.unackedFailures()) > 0)
	for _, r := range c.FailedRanks() {
		if r != c.rank {
			st.markDead(r)
		}
	}
	seq := c.fstate.ftSeq.Add(1)
	size := ftEncodedSize(n)
	for round := 0; round < n; round++ {
		tag := ftTagBase + int(seq)*(n+1) + round
		wire := st.encode()
		var sends, recvs []*Request
		var from []int
		bufs := make([][]byte, 0, n)
		for r := 0; r < n; r++ {
			if r == c.rank || st.isDead(r) {
				continue
			}
			sends = append(sends, c.ftIsend(wire, r, tag))
			buf := make([]byte, size)
			bufs = append(bufs, buf)
			recvs = append(recvs, c.ftIrecv(buf, r, tag))
			from = append(from, r)
		}
		for i, req := range recvs {
			rst := req.Wait()
			if rst.Err != nil {
				// The sender died (ErrProcFailed at post time or via a
				// verdict mid-wait). Any error marks it dead: the
				// detector is accurate, so no rank this one can still
				// reach is ever marked.
				st.markDead(from[i])
				continue
			}
			if err := st.merge(bufs[i][:rst.Bytes]); err != nil {
				st.markDead(from[i])
			}
		}
		for _, req := range sends {
			req.Wait() // failures toward dead peers are expected; drain only
		}
	}
	return st
}

// Agree performs a fault-tolerant agreement (MPIX_Comm_agree): the
// returned value is the bitwise AND of the flag contributions of every
// rank whose record spread through the exchange, and is identical on
// every survivor even with concurrent failures. The error is
// ErrProcFailed-wrapped when a participant knew of unacknowledged
// failures or a rank could not contribute and is not acknowledged
// here; after every survivor AckFailed()s the dead, Agree returns a
// nil error. The value is valid either way. Uniformity caveat (shared
// with MPICH's prototype agreement): the error — not the value — may
// transiently differ across ranks for failures detected while the
// agreement is in flight.
func (c *Comm) Agree(flag uint32) (uint32, error) {
	st := c.ftExchange(flag, 0)
	out := ^uint32(0)
	errbit := false
	var missing []int
	for r := 0; r < c.Size(); r++ {
		if !st.known[r] {
			if !c.ackedRank(r) {
				missing = append(missing, r)
			}
			continue
		}
		out &= st.flags[r]
		if st.errs[r] {
			errbit = true
		}
	}
	if m := c.proc.cmet; m != nil && m.reg.On() {
		m.agrees.Inc()
	}
	if c.local.tracing() {
		c.local.trace("comm.agree", fmt.Sprintf("ctx=%d flag=%#x", c.ctx, out))
	}
	if errbit || len(missing) > 0 {
		return out, fmt.Errorf("%w: agreement over unacknowledged failed ranks %v", ErrProcFailed, missing)
	}
	return out, nil
}

// Shrink derives a child communicator containing exactly the ranks
// whose records spread through the exchange — every live rank, minus
// everything dead, agreed identically on all survivors
// (MPIX_Comm_shrink). The child starts un-revoked with a fresh
// context, reuses the parent's endpoints, and keeps the survivors'
// parent order. A rank that dies *during* the shrink may be included;
// operations on the child then fail with ErrProcFailed and the child
// can itself be shrunk. Collective over the survivors.
func (c *Comm) Shrink() (*Comm, error) {
	// Reserve a candidate context pair; the exchange agrees on the max,
	// and everyone moves past it (comm.go's agreement, run over the FT
	// exchange instead of an allgather so it tolerates failures).
	st := c.ftExchange(0, c.proc.world.reserveCtx())

	ctx := uint32(0)
	var members []int
	for r := 0; r < c.Size(); r++ {
		if !st.known[r] {
			continue
		}
		members = append(members, r)
		ctx = max(ctx, st.cands[r])
	}
	c.proc.world.skipCtx(ctx + 2)

	ranks := make([]int, len(members))
	eps := make([]fabric.EndpointID, len(members))
	newRank := -1
	for i, m := range members {
		ranks[i] = c.ranks[m]
		eps[i] = c.eps[m]
		if m == c.rank {
			newRank = i
		}
	}
	child := &Comm{
		proc:  c.proc,
		rank:  newRank,
		ranks: ranks,
		ctx:   ctx,
		eps:   eps,
		local: c.local,
	}
	if m := c.proc.cmet; m != nil && m.reg.On() {
		m.shrinks.Inc()
	}
	if c.local.tracing() {
		c.local.trace("comm.shrink", fmt.Sprintf("ctx=%d->%d size=%d->%d", c.ctx, ctx, c.Size(), len(members)))
	}
	return c.proc.registerComm(child), nil
}
