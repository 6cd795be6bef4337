package mpi

import (
	"errors"
	"fmt"

	"gompix/internal/core"
	"gompix/internal/fabric"
)

// ErrProcFailed reports that the peer process an operation depends on
// failed: the transport exhausted its re-dial budget (or never reached
// the peer at all) and delivered a failure verdict. Completions carry
// it wrapped with the rank and cause, so errors.Is(err, ErrProcFailed)
// holds while the diagnosis stays visible. The paper's progress
// guarantee (§2.4) is *eventual completion* — a dead peer must complete
// operations with an error, never hang them.
var ErrProcFailed = errors.New("mpi: peer process failed")

var (
	// errFinFailed is the cause an advertised send completes with when
	// its receiver could not read the buffer (a finFailed FIN).
	errFinFailed = errors.New("mpi: the receiver could not read the send buffer")
	// errNoProgress ends a peer read that copies nothing and reports no
	// error.
	errNoProgress = errors.New("mpi: a read of the peer's memory made no progress")
)

// rankOfEP maps an endpoint address to the world rank that owns it.
func (v *VCI) rankOfEP(ep fabric.EndpointID) int {
	return v.proc.world.transport.RankOfEndpoint(ep)
}

// failPeer translates a transport failure verdict (a PeerDown control
// completion) into MPI semantics: every pending operation that depends
// on rank completes with an ErrProcFailed-wrapped error —
//
//   - posted receives from the rank (and AnySource receives, which can
//     no longer be proven satisfiable — see matcher.failPeer);
//   - pending rendezvous handshakes in both directions: RTS entries
//     from the dead peer are dropped, and the handle tables are
//     swept so sends awaiting a CTS and receives awaiting data chunks
//     fail instead of waiting forever — a receive a transport thread is
//     still writing a chunk into fails when that chunk lets go of it
//     (holdLocked);
//   - in-flight collective schedules on every communicator containing
//     the rank abort with the verdict. Failing only directly-addressed
//     ops is not enough for collectives: a dissemination stage can
//     block on a receive from a *live* rank that is itself stalled by
//     the death (and the zero-byte sends toward the dead rank already
//     completed eagerly at post), so the schedule would hang with no op
//     ever naming the failed peer. ULFM semantics are that a collective
//     on a communicator with a failed member raises ERR_PROC_FAILED —
//     membership, not addressing, is what condemns it.
//   - operations issued after the verdict fail at initiation
//     (postRecv / isendWireRaw dead checks).
//
// Already-buffered eager payloads from the dead peer remain
// deliverable. failPeer runs under the stream lock (netPoll), so it
// cannot race other protocol handlers on this VCI; completions run
// outside the matching and handle-table locks.
func (v *VCI) failPeer(rank int, cause error) {
	procErr := fmt.Errorf("%w: rank %d: %v", ErrProcFailed, rank, cause)
	reqs, first := v.match.failPeer(rank, procErr)
	if first {
		if v.tracing() {
			v.trace("proc.failed", fmt.Sprintf("rank %d declared failed: %v", rank, cause))
		}
	}
	var sends []*netSendState
	var recvs []*Request
	v.hmu.Lock()
	for id, st := range v.sends {
		if v.rankOfEP(st.dstEP) == rank {
			delete(v.sends, id)
			sends = append(sends, st)
		}
	}
	for id, req := range v.recvs {
		if req.peerWorld == rank+1 {
			delete(v.recvs, id)
			if !req.holdLocked(Status{Err: procErr}) {
				recvs = append(recvs, req)
			}
		}
	}
	v.hmu.Unlock()
	for _, req := range reqs {
		v.trace("recv.failed", "posted receive: peer process failed")
		req.complete(Status{Err: procErr})
	}
	for _, st := range sends {
		v.rndvAbort(st, procErr)
	}
	for _, req := range recvs {
		v.trace("recv.failed", "rendezvous receive: peer process failed")
		req.complete(Status{Err: procErr})
	}
	for _, c := range v.proc.commsWithWorldRank(rank) {
		c.fstate.abortScheds(procErr)
	}
}

// failPeerLater delivers a failure verdict the MPI layer reached on its
// own — a read of the peer's memory that failed — in the stream's next
// progress pass: failPeer runs under the stream lock, and a receive may
// match an RTS on the application's thread.
func (v *VCI) failPeerLater(rank int, cause error) {
	v.stream.AsyncStart(peerFaultPoll, &peerFault{v: v, rank: rank, cause: cause})
}

type peerFault struct {
	v     *VCI
	rank  int
	cause error
}

func peerFaultPoll(t core.Thing) core.PollOutcome {
	f := t.State().(*peerFault)
	f.v.failPeer(f.rank, f.cause)
	return core.Done
}

// rndvAbort fails a rendezvous send with an already-mapped error,
// exactly once (the handle-table entry is assumed removed by the
// caller; late CTS/chunk completions hit the failed guard or the
// tolerant nil-handle paths).
func (v *VCI) rndvAbort(st *netSendState, err error) {
	if st.failed {
		return
	}
	st.failed = true
	v.netOps.Add(-1)
	v.trace("send.failed", "rendezvous: peer process failed")
	st.req.complete(Status{Err: err})
}
