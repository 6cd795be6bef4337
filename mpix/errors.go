package mpix

import "gompix/internal/mpi"

// Error classes carried by Status.Err / Request.Err. Match them with
// errors.Is: transport failures arrive *wrapped* in these sentinels,
// carrying the underlying cause in their message.
//
// Wrapping rules:
//
//   - ErrTruncate and ErrTimedOut are always returned bare.
//   - ErrLinkDown is returned bare when the reliability layer failed a
//     send on the peer's failure verdict: the send was unacknowledged
//     when the verdict came, or was posted after it. The layer never
//     gives up on a peer by itself — a slow peer is retransmitted to
//     until it answers. When a real transport (TCP) fails — dial
//     timeout, connection reset, write error — the operation's error
//     wraps ErrLinkDown around the transport's own error, so
//     errors.Is(err, mpix.ErrLinkDown) detects the class and
//     err.Error() preserves the cause.
//   - ErrProcFailed always arrives wrapped, carrying the failed rank
//     and the transport's diagnosis ("rank 2: tcp: write rank 2: ...
//     connection reset by peer"). The simulated fabric delivers
//     it too, once a post meets a partition that never heals (either
//     direction of the pair cut). One
//     caveat: sends whose bytes were already queued on the wire (or
//     unacknowledged in the reliability layer) when the peer failed
//     surface as ErrLinkDown instead — the failure raced the verdict.
//     Everything initiated at or after the verdict reports
//     ErrProcFailed.
//   - ErrCommRevoked is always returned bare.
//
// The same rules apply unchanged to continuation-delivered statuses:
// a callback registered with Request.OnComplete or
// ContinueRequest.Continue receives the operation's Status verbatim,
// so errors.Is(s.Err, mpix.ErrProcFailed) inside a callback behaves
// exactly like it does after Wait. A ContinueRequest's own aggregate
// status carries the *first* error any of its callbacks observed
// (unwrapped from nothing — it is the operation's error value itself),
// so errors.Is works on the aggregate too; no new sentinel exists for
// "a continuation failed".
var (
	// ErrTruncate reports a receive buffer smaller than the matched
	// message (MPI_ERR_TRUNCATE).
	ErrTruncate = mpi.ErrTruncate

	// ErrTimedOut reports a WaitDeadline/TestDeadline that expired (or
	// for WaitCtx, see ctx.Err()) before the request completed. The
	// request itself is still pending.
	ErrTimedOut = mpi.ErrTimedOut

	// ErrLinkDown reports that the peer became unreachable: the
	// reliability layer failed a send on the peer's failure verdict, or
	// the underlying transport connection failed.
	ErrLinkDown = mpi.ErrLinkDown

	// ErrProcFailed reports that the peer *process* an operation
	// depends on was declared failed: in remote (multiprocess) mode the
	// transport lost its connection to it, which is the failure
	// verdict; on the simulated fabric a post met
	// a partition that never heals, cutting either direction of the
	// pair. Pending and future operations that
	// need the dead rank — point-to-point and collectives — complete
	// with this error instead of hanging.
	ErrProcFailed = mpi.ErrProcFailed

	// ErrCommRevoked reports that the communicator an operation ran on
	// was revoked (Comm.Revoke, the ULFM MPIX_Comm_revoke): some rank
	// observed a failure and withdrew the communicator from service.
	// Pending operations complete with it, new operations fail at
	// initiation, and only the recovery operations — Comm.Agree,
	// Comm.Shrink, Comm.FailedRanks, Comm.AckFailed — keep working.
	// Distinct from ErrProcFailed: a revoked communicator's peers are
	// not necessarily dead.
	ErrCommRevoked = mpi.ErrCommRevoked
)
