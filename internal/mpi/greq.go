package mpi

import "errors"

// Generalized requests (MPI_Grequest_start et al., paper §4.6 and
// §5.2): a user-created request handle that behaves like any MPI
// request — it can be waited on, tested, and queried with IsComplete —
// while the operation behind it is progressed elsewhere, typically by
// an MPIX Async thing registered alongside it.

// GrequestStart creates a generalized request (MPI_Grequest_start).
//
// queryFn fills in the status when the request is inspected after
// completion; freeFn releases user resources when Free is called;
// cancelFn handles Cancel. Any of them may be nil. extra is the user
// state passed back to the callbacks.
func (p *Proc) GrequestStart(
	queryFn func(extra any, s *Status) error,
	freeFn func(extra any) error,
	cancelFn func(extra any, completed bool) error,
	extra any,
) *Request {
	return &Request{
		kind:     kindGrequest,
		vci:      p.nullVCI,
		proc:     p,
		queryFn:  queryFn,
		freeFn:   freeFn,
		cancelFn: cancelFn,
		extra:    extra,
	}
}

// GrequestComplete marks a generalized request complete
// (MPI_Grequest_complete). The user's progression mechanism — e.g. an
// async thing's poll function — calls this when the underlying
// operation finishes.
func (r *Request) GrequestComplete() {
	if r.kind != kindGrequest {
		panic("mpi: GrequestComplete on a non-generalized request")
	}
	st := Status{}
	if r.queryFn != nil {
		st.Err = r.queryFn(r.extra, &st)
	}
	r.complete(st)
}

// Cancel cancels a request (MPI_Cancel). Generalized requests invoke
// their cancel callback. A receive request is cancelled only while it
// is still queued unmatched: it is removed from the posted queue and
// completes with Status.Cancelled set; once a message has matched it
// (or it has completed), Cancel is a no-op and the operation's real
// outcome stands — exactly MPI's "cancel cannot unmatch" rule. A send
// request is cancelled only while it is a rendezvous its receiver has
// not answered and whose bytes it did not advertise: it leaves the
// handle table and completes with Status.Cancelled set, and a CTS that
// was already on its way is answered with an ABORT, which fails the
// receive. Any other send — buffered or eager (the payload is on the
// wire), past its CTS, or advertised (the receiver may be reading it)
// — is not cancellable; Cancel returns an error for it.
func (r *Request) Cancel() error {
	switch r.kind {
	case kindGrequest:
		completed := r.flag.IsSet()
		var err error
		if r.cancelFn != nil {
			err = r.cancelFn(r.extra, completed)
		}
		if !completed {
			r.complete(Status{Cancelled: true})
		}
		return err
	case kindRecv:
		if r.flag.IsSet() {
			return nil
		}
		// The matcher removes the posted entry under its lock, so the
		// cancel cannot race a concurrent arrival matching the same
		// request: exactly one of them wins.
		if r.vci.match.cancel(r) {
			r.complete(Status{Cancelled: true})
		}
		return nil
	case kindSend:
		if r.vci.withdrawSend(r) {
			return nil
		}
		return errors.New("mpi: send request can no longer be cancelled")
	default:
		return errors.New("mpi: request kind does not support Cancel")
	}
}

// Free releases a completed request (MPI_Request_free semantics for
// generalized requests): the free callback runs once.
func (r *Request) Free() error {
	if r.freed {
		return nil
	}
	r.freed = true
	if r.freeFn != nil {
		return r.freeFn(r.extra)
	}
	return nil
}
