package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"gompix/internal/core"
	"gompix/internal/datatype"
	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/trace"
	"gompix/internal/transport"
)

// ctrlBytes models the wire size of a protocol header.
const ctrlBytes = 32

// drainStart and drainBatch bound the capacity of the per-VCI scratch
// buffers used for zero-allocation CQ/RQ drains: they start at
// drainStart and double, up to drainBatch, whenever a drain fills one
// (growDrain); deeper queues drain over several passes.
const (
	drainStart = 8
	drainBatch = 256
)

// growDrain returns a drained scratch buffer emptied for the next pass,
// twice as large when this drain filled it and it is below drainBatch.
func growDrain[T any](buf []T) []T {
	if len(buf) == cap(buf) && cap(buf) < drainBatch {
		return make([]T, 0, min(2*cap(buf), drainBatch))
	}
	return buf[:0]
}

// msgKind discriminates protocol messages.
type msgKind uint8

const (
	// kindEagerMsg is a complete eager message (payload attached).
	kindEagerMsg msgKind = iota
	// kindRTSMsg is a rendezvous ready-to-send. One that carries the
	// address of the sender's bytes (addr) is advertised: a receiver
	// that can read the sender's memory takes them with one read and
	// answers FIN; any other answers CTS.
	kindRTSMsg
	// kindCTSMsg is a rendezvous clear-to-send.
	kindCTSMsg
	// kindDataMsg is a rendezvous data chunk.
	kindDataMsg
	// kindRevokeMsg announces a communicator revocation (ULFM
	// MPIX_Comm_revoke); src/ctx only, fire-and-forget.
	kindRevokeMsg
	// kindAbortMsg answers a CTS whose send handle is gone — the sender
	// failed or withdrew the rendezvous before the CTS arrived — so the
	// receive it names (rreqID) fails instead of waiting for data
	// forever.
	kindAbortMsg
	// kindFinMsg answers an advertised RTS without a CTS: the receiver
	// is done with the sender's buffer (sreqID names the send) — it read
	// it, or it never will — and off carries how that went (finStatus).
	kindFinMsg
	// numMsgKinds is one past the last defined kind: what the wire
	// codec refuses.
	numMsgKinds
)

// wireHdr is the protocol header: the fabric packet payload on the
// simulated fabric, the codec's input and output on a byte transport.
// A rendezvous names its two ends by handle id (sreqID/rreqID), the
// wire-encoded request ids of a real implementation, on every
// transport: the header holds no pointer into either rank's state.
type wireHdr struct {
	kind  msgKind
	src   int // sender's rank in the communicator
	ctx   uint32
	tag   int
	bytes int // total message payload size

	srcEP  fabric.EndpointID // RTS/CTS: where the answer should be sent
	sreqID uint64            // RTS/CTS: sender-side handle
	rreqID uint64            // CTS/DATA: receiver handle
	flow   uint64            // RTS/CTS: trace flow id (0 when tracing is off)

	off     int    // DATA: chunk offset; FIN: the finStatus
	last    bool   // DATA: final chunk
	addr    uint64 // RTS: the sender's bytes in its address space (0: not advertised)
	payload []byte

	// stage is the nic.GetStaging buffer a decoded payload lives in
	// (byte transports; payload is stage or a suffix of it). Whoever
	// copies the payload into the user's buffer returns it: netPoll
	// after the handler, or the receive that matches the unexpected
	// entry it moved to.
	stage []byte

	// placed is the receive a DATA chunk's payload was written into by
	// the transport (wireCodec.Place): payload is a window of its buffer
	// and there is nothing left to copy. The receive is pinned from Place
	// to the header's Finish or Drop.
	placed *Request
}

// netSendState tracks one rendezvous send on the sender side.
type netSendState struct {
	req *Request
	// wire is the packed payload: the user's buffer itself when
	// Comm.sendPayload aliased it, so nothing may read it once req has
	// completed.
	wire   []byte
	dstEP  fabric.EndpointID
	peer   int    // the world rank that owns dstEP: only its CTS or FIN resolves the handle
	rreqID uint64 // learned from the CTS
	hid    uint64 // this state's own handle id

	// ctx/tag echo the send's envelope so a revocation sweep can key
	// the handle table by communicator (and exempt FT-protocol tags).
	ctx uint32
	tag int

	nextOff  int
	inflight int
	failed   bool // rndvFail ran: req already completed

	// advertised marks a send whose RTS carried the address of wire:
	// the receiver may be reading it at any moment until it answers,
	// so only that answer (FIN, or a CTS and the data behind it) or the
	// peer's failure verdict completes the send — never a revocation.
	advertised bool
}

// finStatus is what a FIN tells the sender about its advertised send.
type finStatus int

const (
	// finRead: the receiver read the message (or the part of it its
	// buffer holds: a truncation is the receiver's error, not the
	// sender's).
	finRead finStatus = iota
	// finRevoked: the communicator was revoked before the message
	// matched; the receiver dropped it unread.
	finRevoked
	// finFailed: the receiver could not read the sender's memory and
	// failed the peer.
	finFailed
)

// hdrPool recycles wire headers so the eager hot path allocates
// nothing per message in steady state. Every link — the reliability
// layer included — encodes a post before it returns and hands the
// receiver a header of its own, decoded from the frame, so one rule
// serves every world: the sender recycles its header once a post
// returns (postInline, postSignaled), and the receiver recycles each
// header it decoded once netPoll has handled it.
var hdrPool = sync.Pool{New: func() any { return new(wireHdr) }}

func newHdr() *wireHdr { return hdrPool.Get().(*wireHdr) }

func recycleHdr(h *wireHdr) {
	*h = wireHdr{}
	hdrPool.Put(h)
}

// sendStatePool recycles rendezvous send states on clean completion,
// once nothing references them: every chunk CQE drained, or the FIN of
// an advertised send taken.
var sendStatePool = sync.Pool{New: func() any { return new(netSendState) }}

func newSendState(req *Request, wire []byte, dstEP fabric.EndpointID) *netSendState {
	st := sendStatePool.Get().(*netSendState)
	*st = netSendState{req: req, wire: wire, dstEP: dstEP}
	return st
}

func recycleSendState(st *netSendState) {
	*st = netSendState{}
	sendStatePool.Put(st)
}

// VCI is a virtual communication interface: the per-stream
// communication context (paper §3.1 — MPIX streams map to VCIs in
// MPICH). It owns every resource its stream's progress touches, so
// progress on different streams shares nothing.
type VCI struct {
	proc   *Proc
	stream *core.Stream
	ep     nic.Link // the transport's, wrapped in the reliability layer when Config.Reliable
	match  matcher

	// netWork is the stream's netmod work counter
	// (core.RegisterHookCounted): positive whenever polling the class
	// might make progress, letting an idle class cost one atomic load.
	netWork *core.Work

	// netmod state.
	netOps atomic.Int64 // outstanding rendezvous sends

	// cqScratch/rqScratch are the reusable netPoll drain buffers
	// (zero-allocation completion drains). Only touched with the stream
	// lock held, like all netPoll state.
	cqScratch []nic.CQE
	rqScratch []fabric.Packet

	// Rendezvous handle tables: rendezvous state is addressed by per-VCI
	// handle ids (wireHdr.sreqID/rreqID), the wire-encoded request ids a
	// real MPI implementation uses. A send is in sends from its RTS to
	// its CTS (or FIN), a receive in recvs from its CTS to its last
	// chunk; the one sweep (VCI.sweep) finds pending handshakes here.
	hmu   sync.Mutex
	hseq  uint64
	sends map[uint64]*netSendState
	recvs map[uint64]*Request

	// met is the optional observability wiring (UseMetrics).
	met *vciMetrics
}

// registerSend assigns a handle id to a rendezvous send state; the id
// travels in the RTS and comes back in the CTS.
func (v *VCI) registerSend(st *netSendState) uint64 {
	v.hmu.Lock()
	defer v.hmu.Unlock()
	v.hseq++
	st.hid = v.hseq
	v.sends[st.hid] = st
	return st.hid
}

// takeSend resolves and removes the send handle id bound to world rank
// peer: the CTS arrives once per rendezvous, and so does the FIN of an
// advertised send (fin). A FIN naming a send that advertised nothing is
// refused: that send's buffer is read only through its CTS. A miss —
// the handle already left the table, or another rank names it — returns
// nil.
func (v *VCI) takeSend(id uint64, fin bool, peer int) *netSendState {
	v.hmu.Lock()
	defer v.hmu.Unlock()
	st := v.sends[id]
	if st == nil || st.peer != peer || fin && !st.advertised {
		return nil
	}
	delete(v.sends, id)
	return st
}

// withdrawSend takes req's rendezvous send out of the handle table and
// completes it cancelled, if the send is still there — its receiver has
// not answered — and advertised nothing, and reports whether it did.
// Nothing references the state after that: its RTS was encoded at post
// and no chunk was posted. A CTS that was already on its way finds no
// handle and is answered with an ABORT.
func (v *VCI) withdrawSend(req *Request) bool {
	v.hmu.Lock()
	var st *netSendState
	for id, s := range v.sends {
		if s.req == req && !s.advertised {
			st = s
			delete(v.sends, id)
			break
		}
	}
	v.hmu.Unlock()
	if st == nil {
		return false
	}
	v.netOps.Add(-1)
	v.trace("send.cancelled", "rendezvous withdrawn before its CTS")
	recycleSendState(st)
	req.complete(Status{Cancelled: true})
	return true
}

// registerRecv assigns a handle id to a rendezvous receive, bound to
// its sender (req.peerWorld); the id travels in the CTS and comes back
// on every data chunk.
func (v *VCI) registerRecv(req *Request) uint64 {
	v.hmu.Lock()
	defer v.hmu.Unlock()
	v.hseq++
	v.recvs[v.hseq] = req
	return v.hseq
}

// recvHandle resolves the receive handle id bound to world rank peer,
// and removes it when retire: data chunks arrive many times, and the
// final chunk or the sender's abort retires the handle. Another rank's
// frame naming the id misses (nil), so it cannot write into or fail a
// receive it is not the sender of.
func (v *VCI) recvHandle(id uint64, retire bool, peer int) *Request {
	v.hmu.Lock()
	defer v.hmu.Unlock()
	req := v.recvs[id]
	if req == nil || req.peerWorld != peer+1 {
		return nil
	}
	if retire {
		delete(v.recvs, id)
	}
	return req
}

// placeChunk is the receive side of direct placement: a transport
// thread is about to write a chunk of n bytes at offset off from world
// rank peer for receive handle id straight into that receive's buffer.
// It returns the receive,
// pinned, and the chunk's window of the buffer the chunk would have
// been copied into — the user's, for a contiguous datatype, the
// reassembly buffer otherwise. A handle that is not live, a chunk
// outside the message its RTS announced, a chunk the user's buffer
// would truncate and a chunk from a rank the handle is not bound to are
// not placed (nil): they take the copying path, and its checks.
func (v *VCI) placeChunk(id uint64, off, n, peer int) (*Request, []byte) {
	v.hmu.Lock()
	defer v.hmu.Unlock()
	req := v.recvs[id]
	if req == nil || req.peerWorld != peer+1 || off+n > req.total {
		return nil, nil
	}
	buf := req.staging
	if buf == nil {
		buf = req.recvBuf[:recvCapacity(req)]
	}
	if off+n > len(buf) {
		return nil, nil
	}
	req.pins++
	return req, buf[off : off+n : off+n]
}

// unpin lets go of a pin placeChunk took. The last one out completes
// the receive if its completion came due while it was pinned.
func (r *Request) unpin() {
	r.vci.hmu.Lock()
	r.pins--
	var st *Status
	if r.pins == 0 {
		st, r.held = r.held, nil
	}
	r.vci.hmu.Unlock()
	if st != nil {
		r.complete(*st)
	}
}

// holdLocked keeps st for the last unpin while a transport is still
// writing chunks into the receive's buffer, and reports whether it did.
// The caller holds vci.hmu and has taken the receive out of the handle
// table, so no pin can be added any more: whoever ends up completing the
// receive — the caller, or the last unpin — does so exactly once.
func (r *Request) holdLocked(st Status) bool {
	if r.pins == 0 {
		return false
	}
	held := st // a copy, so that st itself does not escape on the common path
	r.held = &held
	return true
}

// completeRecv completes a rendezvous receive that has left the handle
// table, now or at its last unpin.
func (r *Request) completeRecv(st Status) {
	r.vci.hmu.Lock()
	held := r.holdLocked(st)
	r.vci.hmu.Unlock()
	if !held {
		r.complete(st)
	}
}

// Stream returns the stream backing this VCI.
func (v *VCI) Stream() *core.Stream { return v.stream }

// tracing reports whether the world has a tracer. Call sites that
// format a detail string must guard on it: the Sprintf argument would
// otherwise allocate on every message even with tracing off.
func (v *VCI) tracing() bool { return v.proc.world.cfg.Tracer != nil }

// trace emits a protocol milestone when the world has a tracer.
func (v *VCI) trace(cat, detail string) {
	if t := v.proc.world.cfg.Tracer; t != nil {
		t(trace.Event{T: v.proc.eng.Now(), Rank: v.proc.rank, Stream: v.stream.ID(), Cat: cat, Detail: detail})
	}
}

// traceFlow emits one leg of a cross-rank flow (rendezvous handshake):
// Perfetto draws Start→Step→…→End events sharing an id as arrows
// between the ranks' lanes.
func (v *VCI) traceFlow(cat, detail string, phase trace.EventPhase, id uint64) {
	if id == 0 {
		return
	}
	if t := v.proc.world.cfg.Tracer; t != nil {
		t(trace.Event{
			T: v.proc.eng.Now(), Rank: v.proc.rank, Stream: v.stream.ID(),
			Cat: cat, Detail: detail, Phase: phase, ID: id,
		})
	}
}

// tracing reports whether the request's world has a tracer (see
// VCI.tracing for why formatted call sites must guard on it).
func (r *Request) tracing() bool { return r.proc.world.cfg.Tracer != nil }

// trace emits a milestone attributed to the request's rank.
func (r *Request) trace(cat, detail string) {
	if t := r.proc.world.cfg.Tracer; t != nil {
		ev := trace.Event{T: r.proc.eng.Now(), Rank: r.proc.rank, Cat: cat, Detail: detail}
		if r.vci != nil {
			ev.Stream = r.vci.stream.ID()
		}
		t(ev)
	}
}

// Endpoint returns the VCI's communication link (a *nic.Endpoint on
// the simulated fabric, a transport-specific link otherwise).
func (v *VCI) Endpoint() nic.Link { return v.ep }

// ---------------------------------------------------------------------------
// Netmod: the one way out of the MPI layer (eager / rendezvous /
// pipeline over whatever nic.Link the transport handed this VCI).

// netPending reports outstanding network work for Quiesce/diagnostics.
func (v *VCI) netPending() int {
	// Frames a link holds between post and wire (write coalescing) or
	// until their acknowledgement (the reliability layer) are still in
	// flight for Quiesce purposes.
	return v.ep.QueuedCQ() + v.ep.QueuedRQ() + v.ep.PendingTx() + int(v.netOps.Load())
}

// mapLinkErr translates a transport completion error into the public
// ErrLinkDown surface. The bare reliability-layer sentinel maps to the
// bare mpi sentinel (identity comparisons keep working); any other
// transport error is wrapped so errors.Is(err, ErrLinkDown) holds while
// the cause stays visible. An error the MPI layer reached itself — a
// verdict's ErrProcFailed, a revocation's ErrCommRevoked — passes as it
// is.
func mapLinkErr(err error) error {
	switch {
	case err == nil || errors.Is(err, ErrProcFailed) || errors.Is(err, ErrCommRevoked):
		return err
	case err == nic.ErrLinkDown:
		return ErrLinkDown
	}
	return fmt.Errorf("%w: %v", ErrLinkDown, err)
}

// postInline sends a fire-and-forget protocol message and takes h
// over: the link encoded it.
func (v *VCI) postInline(dst fabric.EndpointID, h *wireHdr, bytes int) error {
	err := v.ep.PostSendInline(dst, h, bytes)
	recycleHdr(h)
	return err
}

// postSignaled sends a protocol message whose completion (wire-tx, or
// cumulative ack under the reliability layer) posts token to the
// completion queue, and takes h over.
func (v *VCI) postSignaled(dst fabric.EndpointID, h *wireHdr, bytes int, token any) error {
	err := v.ep.PostSend(dst, h, bytes, token)
	recycleHdr(h)
	return err
}

// linkFlushPoll drives a link's deferred send work as an MPIX Async
// thing — a write-coalescing transport's socket flush, the reliability
// layer's retransmission timer: the link arms it (nic.Link.SetArm) on
// the idle→busy transition and it retires itself once the link reports
// idle, so socket writes and retransmissions flow through
// Stream.Progress like every subsystem.
func linkFlushPoll(t core.Thing) core.PollOutcome {
	v := t.State().(*VCI)
	made, idle := v.ep.Flush()
	if idle {
		return core.Done
	}
	if made {
		return core.Progressed
	}
	return core.NoProgress
}

// netPoll drains the completion queue and the receive queue — the
// netmod progress of paper Listing 1.1. The drains run through the
// VCI's scratch buffers (stream-lock protected, like all netPoll
// state), so a steady-state pass allocates nothing.
func (v *VCI) netPoll() bool {
	made := false
	// Byte transports ingest socket bytes and ring cells on this thread
	// first, so the drains below see the frames this same pass — MPI
	// progress drives the transport work instead of waking background
	// goroutines.
	if v.ep.PollRecv() {
		made = true
	}
	cqes := v.ep.DrainCQ(v.cqScratch)
	pkts := v.ep.DrainRQ(v.rqScratch)
	if m := v.met; m != nil && len(cqes) > 0 && m.reg.On() {
		// CQ observation latency: how long each completion sat in the
		// queue before this progress pass drained it (a wait block's
		// un-observed tail, paper Fig. 1).
		now := v.proc.eng.Now()
		for _, cqe := range cqes {
			m.cqLatency.Observe(int64(now - cqe.At))
		}
	}
	for _, cqe := range cqes {
		made = true
		switch tok := cqe.Token.(type) {
		case *Request:
			if cqe.Err != nil {
				// Eager send on a dead link: surface the failure
				// instead of leaving the request pending forever.
				v.trace("send.failed", "eager send: link down")
				tok.complete(Status{Err: mapLinkErr(cqe.Err)})
				continue
			}
			// Eager send: the NIC released the buffer (Fig. 1b).
			v.trace("nic.cq", "eager send complete")
			tok.complete(Status{Bytes: tok.total})
		case *netSendState:
			if cqe.Err != nil {
				v.rndvFail(tok, cqe.Err)
				continue
			}
			v.trace("nic.cq", "rndv chunk tx done")
			v.rndvChunkDone(tok)
		case nic.PeerDown:
			// Transport failure verdict.
			v.failPeer(tok.Rank, cqe.Err)
		default:
			panic("mpi: unknown CQ token")
		}
	}
	for _, pkt := range pkts {
		made = true
		h := pkt.Payload.(*wireHdr)
		v.handleNetMsg(h, pkt.Src)
		// The handler copied the payload out or took the buffer over.
		nic.PutStaging(h.stage)
		recycleHdr(h)
	}
	// Scrub and keep the scratch buffers, grown if full: drained entries
	// must not pin payloads or pooled tokens until next poll.
	for i := range cqes {
		cqes[i] = nic.CQE{}
	}
	for i := range pkts {
		pkts[i] = fabric.Packet{}
	}
	v.cqScratch = growDrain(cqes)
	v.rqScratch = growDrain(pkts)
	return made
}

// rndvFail is the one way a rendezvous send fails: a link-down
// completion of one of its chunks, a refused RTS, the peer's verdict
// (failPeer), a revocation (revokeSweep) and a FIN that reports no read
// all end here, and only the first of them completes the send — several
// chunk completions may carry the same failure, and a verdict may follow
// them. The send leaves the handle table if it is still there, so a late
// CTS or FIN finds nothing; chunk completions still owed find st.failed.
// err reaches the request through mapLinkErr.
func (v *VCI) rndvFail(st *netSendState, err error) {
	if st.failed {
		return
	}
	st.failed = true
	v.takeSend(st.hid, false, st.peer)
	v.netOps.Add(-1)
	err = mapLinkErr(err)
	if v.tracing() {
		v.trace("send.failed", "rendezvous: "+err.Error())
	}
	st.req.complete(Status{Err: err})
}

// sweep fails with err every rendezvous handle the predicates select: the
// one way a verdict (failPeer) and a revocation (revokeSweep) reach the
// handle tables. A selected handle leaves its table under hmu, so nothing
// resolves it afterwards; a send then fails through rndvFail, a receive
// now or — when a transport thread is still writing a chunk into its
// buffer — at its last unpin (holdLocked). Completions run outside hmu.
func (v *VCI) sweep(sendSel func(*netSendState) bool, recvSel func(*Request) bool, err error) {
	var sends []*netSendState
	var recvs []*Request
	v.hmu.Lock()
	for id, st := range v.sends {
		if sendSel(st) {
			delete(v.sends, id)
			sends = append(sends, st)
		}
	}
	for id, req := range v.recvs {
		if recvSel(req) {
			delete(v.recvs, id)
			if !req.holdLocked(Status{Err: err}) {
				recvs = append(recvs, req)
			}
		}
	}
	v.hmu.Unlock()
	for _, st := range sends {
		v.rndvFail(st, err)
	}
	for _, req := range recvs {
		if v.tracing() {
			v.trace("recv.failed", "rendezvous receive: "+err.Error())
		}
		req.complete(Status{Err: err})
	}
}

// isendNet issues a send: every message, whoever it is for, leaves
// through the VCI's link and arrives through netPoll.
func (v *VCI) isendNet(req *Request, dstEP fabric.EndpointID, hdr wireHdr, wire []byte) {
	cfg := v.proc.world.cfg
	n := len(wire)
	req.total = n
	switch {
	case n <= cfg.EagerInline:
		// Lightweight/buffered send (Fig. 1a): the link encodes the
		// payload before PostSendInline returns — the NIC's copy at
		// injection — so no completion is needed.
		if v.tracing() {
			v.trace("send.init", fmt.Sprintf("buffered eager, %d bytes", n))
		}
		h := newHdr()
		*h = hdr
		h.kind = kindEagerMsg
		h.payload = wire
		v.postInline(dstEP, h, ctrlBytes+n)
		req.complete(Status{Bytes: n})
		v.trace("send.complete", "buffered (no wait block)")
	case n <= cfg.RndvThreshold:
		// Eager send (Fig. 1b): one wait block on the CQ. The link may
		// read wire until it posts the CQE (a byte transport sends a
		// body of nic.BulkMin or more from where it is).
		if v.tracing() {
			v.trace("send.init", fmt.Sprintf("eager, %d bytes", n))
		}
		h := newHdr()
		*h = hdr
		h.kind = kindEagerMsg
		h.payload = wire
		if err := v.postSignaled(dstEP, h, ctrlBytes+n, req); err != nil {
			req.complete(Status{Err: mapLinkErr(err)})
		}
	default:
		// Rendezvous (Fig. 1c): RTS now; data flows after the CTS.
		if v.tracing() {
			v.trace("send.init", fmt.Sprintf("rendezvous, %d bytes", n))
		}
		st := newSendState(req, wire, dstEP)
		st.ctx = hdr.ctx
		st.tag = hdr.tag
		st.peer = v.rankOfEP(dstEP)
		h := newHdr()
		*h = hdr
		h.kind = kindRTSMsg
		h.srcEP = v.ep.ID()
		// Advertise the bytes to a peer whose memory this process can
		// read: the check is symmetric in practice, and a receiver that
		// cannot read them answers CTS all the same.
		if v.proc.world.transport.PeerReader(st.peer) != nil {
			h.addr = addrOf(wire)
			st.advertised = true
		}
		h.sreqID = v.registerSend(st)
		var flow uint64
		if v.proc.world.cfg.Tracer != nil {
			flow = v.proc.world.flowSeq.Add(1)
			h.flow = flow
		}
		v.netOps.Add(1)
		// Posting takes h over; don't touch it past this point. A dead
		// peer fails the send through the verdict's sweep of the handle
		// table.
		if err := v.postInline(dstEP, h, ctrlBytes); err != nil {
			v.rndvFail(st, err)
			return
		}
		v.trace("rndv.rts.sent", "")
		v.traceFlow("rndv.handshake", "RTS sent", trace.PhaseFlowStart, flow)
	}
}

// addrOf is the address of b's first byte, which an advertised RTS
// carries to the receiver. A send's wire is heap memory (the send state
// holds it), and the Go heap does not move.
func addrOf(b []byte) uint64 { return uint64(uintptr(unsafe.Pointer(unsafe.SliceData(b)))) }

// rndvSendData keeps up to PipelineDepth chunks in flight. Under the
// reliability layer the window is ACK-clocked: a chunk stays "in
// flight" until cumulatively acknowledged, not merely transmitted.
func (v *VCI) rndvSendData(st *netSendState) {
	if st.failed {
		return
	}
	cfg := v.proc.world.cfg
	total := len(st.wire)
	for st.inflight < cfg.PipelineDepth && st.nextOff < total {
		end := st.nextOff + cfg.PipelineChunk
		if end > total {
			end = total
		}
		h := newHdr()
		*h = wireHdr{
			kind:    kindDataMsg,
			bytes:   total,
			rreqID:  st.rreqID,
			off:     st.nextOff,
			last:    end == total,
			payload: st.wire[st.nextOff:end],
		}
		st.inflight++
		v.postSignaled(st.dstEP, h, ctrlBytes+(end-st.nextOff), st)
		st.nextOff = end
	}
}

// rndvChunkDone handles a chunk's transmit (or ack) completion.
func (v *VCI) rndvChunkDone(st *netSendState) {
	st.inflight--
	if st.failed {
		return
	}
	if st.nextOff < len(st.wire) {
		v.rndvSendData(st)
		return
	}
	if st.inflight == 0 {
		v.netOps.Add(-1)
		st.req.complete(Status{Bytes: len(st.wire)})
		v.trace("send.complete", "rendezvous data drained")
		// Every chunk CQE has been drained: nothing references the
		// state anymore.
		recycleSendState(st)
	}
}

// handleNetMsg processes one arrived protocol message from endpoint src.
// A frame that resolves a rendezvous handle — CTS, FIN, DATA, ABORT —
// resolves only one bound to src's rank.
func (v *VCI) handleNetMsg(h *wireHdr, src fabric.EndpointID) {
	switch h.kind {
	case kindEagerMsg:
		// Unexpected eager arrivals buffer the payload (Fig. 1d) — the
		// decoded payload is already the receiver's own, and the entry
		// takes its staging buffer along.
		req := v.match.matchOrEnqueue(h.ctx, h.src, h.tag, func() unexpected {
			e := unexpected{
				ctx: h.ctx, src: h.src, tag: h.tag,
				kind: unexpEager, data: h.payload, stage: h.stage, bytes: h.bytes,
			}
			h.stage = nil
			return e
		})
		if req != nil {
			v.trace("recv.eager.deliver", "matched posted receive")
			deliverEager(req, h.src, h.tag, h.payload)
			return
		}
		if v.tracing() {
			v.trace("recv.unexpected", fmt.Sprintf("eager %d bytes buffered", h.bytes))
		}
	case kindRTSMsg:
		v.trace("rndv.rts.recv", "")
		v.traceFlow("rndv.handshake", "RTS received", trace.PhaseFlowStep, h.flow)
		if h.addr != 0 && v.revokedCtx(h.ctx, h.tag) {
			// Nothing on a revoked communicator matches any more, and the
			// advertised send waits for an answer: drop it unread.
			v.postFin(h.srcEP, h.sreqID, finRevoked, h.flow)
			return
		}
		req := v.match.matchOrEnqueue(h.ctx, h.src, h.tag, func() unexpected { return v.rtsEntry(h) })
		if req != nil {
			v.answerRTS(req, v.rtsEntry(h))
			return
		}
		v.trace("recv.unexpected", "RTS queued")
	case kindCTSMsg:
		v.trace("rndv.cts.recv", "")
		v.traceFlow("rndv.handshake", "CTS received", trace.PhaseFlowEnd, h.flow)
		// Resolve (and retire) the sender-side handle. A miss means the
		// send already failed — a link failure, a verdict, a revocation
		// sweep — or was withdrawn (Request.Cancel) before its CTS
		// arrived (or the id is corrupt). The
		// receiver registered a receive for data that will never come:
		// tell it to abort.
		st := v.takeSend(h.sreqID, false, v.rankOfEP(src))
		if st == nil {
			v.trace("rndv.cts.stale", "no matching send handle; receiver told to abort")
			a := newHdr()
			*a = wireHdr{kind: kindAbortMsg, rreqID: h.rreqID}
			v.postInline(h.srcEP, a, ctrlBytes)
			return
		}
		st.rreqID = h.rreqID
		v.rndvSendData(st)
	case kindFinMsg:
		v.traceFlow("rndv.handshake", "FIN received", trace.PhaseFlowEnd, h.flow)
		// The receiver is done with the advertised buffer. A miss means
		// the send already completed through the peer's verdict (or the
		// id is corrupt).
		st := v.takeSend(h.sreqID, true, v.rankOfEP(src))
		if st == nil {
			v.trace("rndv.fin.stale", "no matching advertised send; dropped")
			return
		}
		switch finStatus(h.off) {
		case finRead:
			v.netOps.Add(-1)
			st.req.complete(Status{Bytes: len(st.wire)})
			v.trace("send.complete", "rendezvous read by the receiver")
		case finRevoked:
			v.rndvFail(st, ErrCommRevoked)
		default:
			v.rndvFail(st, errFinFailed)
		}
		// An advertised send posts no chunk: no CQE references the state.
		recycleSendState(st)
	case kindDataMsg:
		if h.last {
			v.trace("recv.data.last", "")
		}
		// Resolve the receiver-side handle; the final chunk retires it. A
		// miss is tolerated for the same reason as a stale CTS above: the
		// receive already failed (or the frame is another rank's).
		peer := v.rankOfEP(src)
		req := v.recvHandle(h.rreqID, false, peer)
		if req == nil {
			v.trace("rndv.data.stale", "no matching recv handle; dropped")
			return
		}
		if h.off+len(h.payload) > req.total {
			// The handle is live but the chunk does not fit the message it
			// announced: the sender's stream is corrupt. Fail the peer —
			// which completes this receive, still in the table — instead
			// of indexing past a buffer.
			v.failPeer(req.peerWorld-1, fmt.Errorf("rendezvous chunk [%d,%d) outside its %d-byte message",
				h.off, h.off+len(h.payload), req.total))
			return
		}
		if h.last {
			v.recvHandle(h.rreqID, true, peer)
		}
		st, done := deliverRndvChunk(req, h.off, h.payload, h.last, h.placed != nil)
		if !done {
			return
		}
		req.completeRecv(st)
		if req.tracing() {
			req.trace("recv.complete", fmt.Sprintf("%d bytes (rendezvous)", st.Bytes))
		}
	case kindAbortMsg:
		// A receive still waiting here lost its sender to a link failure
		// the sender saw, or to a withdrawal (an aborted collective's
		// sweep): a revocation reaches the receiver first, flooded ahead
		// of this answer on the same link, and after a verdict one of the
		// two is dead. A handle already gone is dropped.
		req := v.recvHandle(h.rreqID, true, v.rankOfEP(src))
		if req == nil {
			v.trace("rndv.abort.stale", "no matching recv handle; dropped")
			return
		}
		v.trace("recv.failed", "rendezvous sender aborted before CTS")
		req.completeRecv(Status{Err: ErrLinkDown})
	case kindRevokeMsg:
		v.handleRevoke(h)
	default:
		panic("mpi: unknown network message kind")
	}
}

// rtsEntry is the unexpected-queue entry of an arrived RTS: what
// answerRTS needs to answer it, now or when a receive matches it.
func (v *VCI) rtsEntry(h *wireHdr) unexpected {
	return unexpected{
		ctx: h.ctx, src: h.src, tag: h.tag,
		kind: unexpRTS, bytes: h.bytes, sreqID: h.sreqID, addr: h.addr,
		srcEP: h.srcEP, flow: h.flow, worldSrc: v.rankOfEP(h.srcEP),
	}
}

// revokedCtx reports whether traffic on context ctx with tag belongs to
// a revoked communicator — its pt2pt context (even), or its collective
// context below the fault-tolerance tag floor (see matcher.failCtx).
func (v *VCI) revokedCtx(ctx uint32, tag int) bool {
	c := v.proc.lookupComm(ctx &^ 1)
	return c != nil && c.Revoked() && inCtx(c.ctx, ctx, tag)
}

// answerRTS prepares a matched receive for the rendezvous message of
// RTS entry e and answers the RTS exactly once. An advertised RTS from
// a peer whose memory this process can read is answered by reading the
// message (readRndv) and a FIN; any other by a clear-to-send, which
// registers the receive for the data chunks and echoes the sender's
// handle.
func (v *VCI) answerRTS(req *Request, e unexpected) {
	// The RTS may outlive its sender (a queued unexpected entry, or an
	// arrival racing the failure verdict): answering it would register a
	// receive no data will ever complete.
	if err := v.match.peerErr(e.worldSrc); err != nil {
		v.trace("recv.failed", "rendezvous sender failed before CTS")
		req.complete(Status{Err: err})
		return
	}
	prepareRndvRecv(req, e.src, e.tag, e.bytes)
	req.peerWorld = e.worldSrc + 1
	if e.addr != 0 {
		if rd := v.proc.world.transport.PeerReader(e.worldSrc); rd != nil {
			v.readRndv(req, rd, e)
			return
		}
	}
	h := newHdr()
	*h = wireHdr{kind: kindCTSMsg, srcEP: v.ep.ID(), sreqID: e.sreqID, rreqID: v.registerRecv(req), flow: e.flow}
	v.postInline(e.srcEP, h, ctrlBytes)
	v.trace("rndv.cts.sent", "")
	v.traceFlow("rndv.handshake", "CTS sent", trace.PhaseFlowStep, e.flow)
}

// readRndv is the one-copy same-node rendezvous: the receiver reads the
// message out of the sender's address space straight into the receive
// buffer (into the reassembly buffer for a gapped datatype) — as much of
// it as the buffer holds — and answers FIN, which hands the sender its
// buffer back. An address the sender has not mapped (a hostile or
// corrupt RTS) or a sender that is gone fails the peer, as a DATA chunk
// outside its message does: the receive waits in the handle table for
// that verdict, which completes it.
func (v *VCI) readRndv(req *Request, rd transport.PeerReader, e unexpected) {
	n := min(e.bytes, recvCapacity(req))
	dst := req.staging
	if dst == nil {
		dst = req.recvBuf
	}
	dst = dst[:n]
	var err error
	for off := 0; off < n && err == nil; {
		var k int
		if k, err = rd.ReadPeer(dst[off:], e.addr+uint64(off)); k == 0 && err == nil {
			err = errNoProgress
		}
		off += k
	}
	if err != nil {
		v.postFin(e.srcEP, e.sreqID, finFailed, e.flow)
		v.registerRecv(req)
		v.trace("recv.failed", "rendezvous: the sender's buffer could not be read")
		// The verdict this process reached on its own runs in the stream's
		// next pass: failPeer runs under the stream lock, and a receive may
		// match an RTS on the application's thread.
		err = fmt.Errorf("rendezvous read of %d bytes at %#x: %w", n, e.addr, err)
		v.stream.Defer(func() { v.failPeer(e.worldSrc, err) })
		return
	}
	v.postFin(e.srcEP, e.sreqID, finRead, e.flow)
	st := rndvStatus(req, e.bytes)
	req.complete(st)
	if req.tracing() {
		req.trace("recv.complete", fmt.Sprintf("%d bytes (rendezvous read)", st.Bytes))
	}
}

// postFin answers an advertised RTS without a CTS.
func (v *VCI) postFin(dstEP fabric.EndpointID, sreqID uint64, fin finStatus, flow uint64) {
	h := newHdr()
	*h = wireHdr{kind: kindFinMsg, sreqID: sreqID, off: int(fin), flow: flow}
	v.postInline(dstEP, h, ctrlBytes)
	v.traceFlow("rndv.handshake", "FIN sent", trace.PhaseFlowStep, flow)
}

// ---------------------------------------------------------------------------
// Delivery helpers.

// recvCapacity returns the packed capacity of a receive request.
func recvCapacity(req *Request) int {
	return datatype.PackedSize(req.recvCount, req.recvDT)
}

// deliverEager unpacks a complete payload into the receive buffer and
// completes the request, truncating (with an error) if needed.
func deliverEager(req *Request, src, tag int, payload []byte) {
	capacity := recvCapacity(req)
	st := Status{Source: src, Tag: tag}
	n := len(payload)
	if n > capacity {
		n = capacity
		st.Err = ErrTruncate
	}
	elems := 0
	if req.recvDT.Size() > 0 {
		elems = n / req.recvDT.Size()
	}
	datatype.Unpack(req.recvBuf, payload[:elems*req.recvDT.Size()], elems, req.recvDT)
	st.Bytes = elems * req.recvDT.Size()
	req.complete(st)
	if req.tracing() {
		req.trace("recv.complete", fmt.Sprintf("%d bytes", st.Bytes))
	}
}

// prepareRndvRecv sizes the request's delivery state before data flows.
func prepareRndvRecv(req *Request, src, tag, totalBytes int) {
	req.status.Source = src
	req.status.Tag = tag
	req.total = totalBytes
	if !req.recvDT.Contig() {
		req.staging = make([]byte, totalBytes)
	}
}

// deliverRndvChunk accounts for one rendezvous data chunk, copying it
// where it belongs unless the transport already wrote it there
// (placed). Chunks arrive in order (FIFO per link); the final chunk
// reports the receive's completion status (done), which the caller
// delivers.
func deliverRndvChunk(req *Request, off int, payload []byte, last, placed bool) (st Status, done bool) {
	capacity := recvCapacity(req)
	switch {
	case placed: // the transport wrote it where it belongs
	case req.staging != nil:
		copy(req.staging[off:], payload)
	case off < capacity:
		// Contiguous datatype: copy straight into the user buffer,
		// dropping bytes beyond capacity (truncation).
		end := min(off+len(payload), capacity)
		copy(req.recvBuf[off:end], payload[:end-off])
	}
	req.received += len(payload)
	if !last {
		return Status{}, false
	}
	return rndvStatus(req, min(req.received, req.total)), true // a repeated chunk must not count twice
}

// rndvStatus is the completion status of a rendezvous receive once n
// bytes of its message have arrived: truncated to the buffer, unpacked
// from the reassembly buffer for a gapped datatype.
func rndvStatus(req *Request, n int) Status {
	capacity := recvCapacity(req)
	st := Status{Source: req.status.Source, Tag: req.status.Tag}
	if n > capacity {
		n = capacity
		st.Err = ErrTruncate
	}
	if req.staging != nil {
		elems := 0
		if req.recvDT.Size() > 0 {
			elems = n / req.recvDT.Size()
		}
		datatype.Unpack(req.recvBuf, req.staging[:elems*req.recvDT.Size()], elems, req.recvDT)
		n = elems * req.recvDT.Size()
		req.staging = nil
	}
	st.Bytes = n
	return st
}
