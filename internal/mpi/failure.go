package mpi

import (
	"errors"
	"fmt"

	"gompix/internal/fabric"
)

// ErrProcFailed reports that the peer process an operation depends on
// failed: the transport delivered a failure verdict, which names a rank
// this one can never reach again — tcp's lost connection, shm's
// released alive lock, a simulated partition that never heals — or the
// MPI layer reached one itself (a corrupt rendezvous stream, a read of
// the peer's memory that failed). Completions carry it wrapped with the
// rank and cause, so errors.Is(err, ErrProcFailed) holds while the
// diagnosis stays visible. The paper's progress
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
//     from the dead peer are dropped, and the one sweep (VCI.sweep)
//     fails sends awaiting a CTS or FIN and receives awaiting data
//     chunks instead of leaving them waiting forever — a send through
//     the one abort (rndvFail), a receive a transport thread is still
//     writing a chunk into when that chunk lets go of it (holdLocked);
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
	for _, req := range reqs {
		v.trace("recv.failed", "posted receive: peer process failed")
		req.complete(Status{Err: procErr})
	}
	v.sweep(func(st *netSendState) bool { return st.peer == rank },
		func(req *Request) bool { return req.peerWorld == rank+1 }, procErr)
	for _, c := range v.proc.commsWithWorldRank(rank) {
		c.fstate.abortScheds(procErr)
	}
}
