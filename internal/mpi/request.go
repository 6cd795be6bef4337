package mpi

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gompix/internal/core"
	"gompix/internal/datatype"
)

// Wildcards for Recv/Irecv/Probe source and tag matching.
const (
	// AnySource matches any sending rank (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches any tag (MPI_ANY_TAG).
	AnyTag = -1
)

// ErrTruncate reports a receive buffer smaller than the matched message
// (MPI_ERR_TRUNCATE).
var ErrTruncate = errors.New("mpi: message truncated")

// ErrTimedOut reports that a WaitDeadline/TestDeadline deadline expired
// before the request completed. The request itself is still pending;
// abandon it with Cancel or keep waiting.
var ErrTimedOut = errors.New("mpi: wait timed out")

// ErrLinkDown reports that the peer became unreachable: the transport
// failed the operation's bytes, or the reliability layer failed a send
// on the peer's failure verdict. The operation failed rather than
// hanging (carried in Status.Err).
var ErrLinkDown = errors.New("mpi: peer unreachable (link down)")

// Status describes a completed receive (MPI_Status).
type Status struct {
	// Source is the sender's rank in the receive communicator.
	Source int
	// Tag is the matched tag.
	Tag int
	// Bytes is the number of payload bytes received.
	Bytes int
	// Err carries a delivery error such as ErrTruncate.
	Err error
	// Cancelled reports cancellation (generalized requests only).
	Cancelled bool
}

// Elements returns the element count for the datatype (MPI_Get_count).
func (s Status) Elements(dt *datatype.Datatype) int {
	if dt.Size() == 0 {
		return 0
	}
	return s.Bytes / dt.Size()
}

// reqKind discriminates request flavors.
type reqKind uint8

const (
	kindSend reqKind = iota
	kindRecv
	kindGrequest
	kindContinue
	kindSched
)

// Request is an MPI request handle. Requests complete only inside
// progress (or at initiation for buffered sends); completion is
// observable without side effects via IsComplete.
type Request struct {
	flag core.CompletionFlag
	kind reqKind
	vci  *VCI
	proc *Proc

	// status is written by the completing context before flag.Set and
	// must only be read after IsComplete reports true.
	status Status

	// doneAt is the engine time complete() ran (0 when metrics were off
	// at completion); written before flag.Set, so any reader that saw
	// the flag set also sees the stamp. obsOnce makes the first
	// completion-observing call record the progress latency exactly once.
	doneAt  time.Duration
	obsOnce atomic.Bool

	// peerWorld is 1 + the world rank of the peer this request is bound
	// to (set when a rendezvous receive registers in the handle table); 0
	// means unbound. Lets failPeer sweep handle-table entries without a
	// reverse index.
	peerWorld int

	// ctxID is the communicator context the request was initiated on
	// (receives; set before any handle-table registration). Lets a
	// revocation sweep key handle-table entries by communicator.
	ctxID uint32

	// Receive-side delivery state (owned by the matching engine /
	// protocol handlers).
	recvBuf   []byte
	recvCount int
	recvDT    *datatype.Datatype
	staging   []byte // rendezvous reassembly for non-contiguous types
	received  int
	total     int

	// pins counts data chunks a transport thread is writing into this
	// receive's buffer (VCI.placeChunk); held is the completion that came
	// due meanwhile, delivered by the last unpin. Both under vci.hmu.
	pins int
	held *Status

	// conts is the completion list: the nodes of the continuation
	// records registered on this request (MPIX Continue, paper §5.4),
	// pushed by CAS, newest first. complete() swaps in contClosed and
	// hands each node the status; a record only stores it and defers
	// the user callback to its stream, so the callback itself never
	// runs in the completing context.
	conts atomic.Pointer[contNode]

	// Generalized-request callbacks (paper §4.6).
	queryFn  func(extra any, s *Status) error
	freeFn   func(extra any) error
	cancelFn func(extra any, completed bool) error
	extra    any
	freed    bool
}

// IsComplete reports completion without invoking progress — the
// paper's MPIX_Request_is_complete: a single atomic load, safe to call
// from inside async poll functions. (With metrics enabled, the first
// call that sees completion also records the progress latency; an
// incomplete or unmetered request pays nothing beyond the load.)
func (r *Request) IsComplete() bool {
	if !r.flag.IsSet() {
		return false
	}
	r.observed()
	return true
}

// Status returns the request's status. Valid only after completion.
func (r *Request) Status() Status { return r.status }

// complete publishes the status and runs continuations. It must be
// called at most once, from the context that finished the operation.
func (r *Request) complete(st Status) {
	prior := r.status
	r.status = st
	if v := r.vci; v != nil {
		if m := v.met; m != nil && m.reg.On() {
			r.doneAt = r.proc.eng.Now()
		}
	}
	if !r.flag.Set() {
		panic(fmt.Sprintf("mpi: request completed twice (kind=%d prior=%+v new=%+v)", r.kind, prior, st))
	}
	// Close the list and take it in one swap, then reverse it to
	// deliver in registration order.
	var in *contNode
	for n := r.conts.Swap(&contClosed); n != nil; {
		next := n.next
		n.next = in
		in, n = n, next
	}
	for n := in; n != nil; n = n.next {
		n.rec.arrive(n.i, st)
	}
}

// rearm returns a completed request to pending for reuse, with an
// empty, open completion list.
func (r *Request) rearm() {
	r.status = Status{}
	r.obsOnce.Store(false)
	r.conts.Store(nil)
	r.flag.Reset()
}

// contNode is one entry of a request's completion list. It is embedded
// in the record it points back to, so a registration allocates the
// record and nothing per request; i is the operation's index in a set
// record.
type contNode struct {
	next *contNode
	rec  contRecord
	i    int
}

// contRecord is a registered continuation. arrive runs in the
// completing context, once per node, after the status is published: it
// must only record the status and hand the user callback on (to a
// stream's run-queue, or a channel).
type contRecord interface{ arrive(i int, st Status) }

// contClosed terminates a completed request's list: a push that finds
// it has lost to completion.
var contClosed contNode

// addCont pushes n onto the completion list and reports whether it was
// registered. Once the request has completed it returns false and n's
// record is not called; the caller applies the already-complete policy
// (inline vs deferred — see ContinueRequest.Continue).
func (r *Request) addCont(n *contNode) bool {
	for {
		head := r.conts.Load()
		if head == &contClosed {
			return false
		}
		n.next = head
		if r.conts.CompareAndSwap(head, n) {
			return true
		}
	}
}

// observed records the completion-to-observation progress latency the
// first time a completed request is seen by the application. Callers
// must have seen flag.IsSet() already.
func (r *Request) observed() {
	v := r.vci
	if v == nil {
		return
	}
	m := v.met
	if m == nil || !m.reg.On() || r.doneAt == 0 {
		return
	}
	if r.obsOnce.Swap(true) {
		return
	}
	m.progressLatency.Observe(int64(r.proc.eng.Now() - r.doneAt))
	m.observed.Inc()
}

// stream returns the progress stream that advances this request.
func (r *Request) stream() *core.Stream { return r.vci.stream }

// Wait blocks until the request completes, driving progress on the
// request's stream (MPI_Wait), and returns the status. Like every
// blocking call it is core.Stream.Await with its own condition: a
// trylock pass, a yield after each empty one, then the park rung.
func (r *Request) Wait() Status {
	r.proc.await(r.stream(), r.flag.IsSet, nil)
	r.observed()
	return r.status
}

// Err returns the request's delivery error, or nil if the request is
// incomplete or completed cleanly.
func (r *Request) Err() error {
	if !r.flag.IsSet() {
		return nil
	}
	return r.status.Err
}

// Cancelled reports whether the request completed via cancellation
// (no payload delivered, no error either). False while incomplete.
func (r *Request) Cancelled() bool {
	return r.flag.IsSet() && r.status.Cancelled
}

// waitCancelled is the bounded wait: Await with a cancel function,
// whose first non-nil error is returned with the request still
// pending. On completion it returns the status and Status.Err.
func (r *Request) waitCancelled(cancelled func() error) (Status, error) {
	if err := r.proc.await(r.stream(), r.flag.IsSet, cancelled); err != nil {
		return Status{}, err
	}
	r.observed()
	return r.status, r.status.Err
}

// WaitCtx is Wait bounded by a context: it drives progress until the
// request completes or ctx is cancelled, in which case it returns
// ctx.Err() with the request still pending — keep waiting, or abandon
// a receive with Cancel. On completion it returns the status and
// Status.Err (e.g. ErrLinkDown when the transport gave up on the peer).
//
// Kept for callers that want one blocking wait; code juggling many
// in-flight operations is usually better served by the continuation
// model — OnComplete, Done, or a ContinueRequest — which reacts to
// completions without parking a goroutine per request (see DESIGN.md
// §13 for the context-cancellation bridge built from Done).
func (r *Request) WaitCtx(ctx context.Context) (Status, error) {
	return r.waitCancelled(ctx.Err)
}

// WaitDeadline is Wait bounded by a timeout on the engine clock: it
// drives progress until the request completes or timeout elapses. On
// completion it returns the status and Status.Err (e.g. ErrLinkDown
// when the reliability layer gave up on the peer); on expiry it returns
// ErrTimedOut with the request still pending — keep waiting, or
// abandon a receive with Cancel.
func (r *Request) WaitDeadline(timeout time.Duration) (Status, error) {
	p := r.proc
	deadline := p.eng.Now() + timeout
	return r.waitCancelled(func() error {
		if p.eng.Now() >= deadline {
			return ErrTimedOut
		}
		return nil
	})
}

// TestDeadline is the polling counterpart of WaitDeadline: one progress
// pass, judged against an absolute deadline on the engine clock
// (compute it once as r.Proc().Engine().Now() + timeout and pass it to
// every call). It returns done=true with the status and Status.Err on
// completion, ErrTimedOut once the deadline has passed, and all-zero
// values while the request is pending with time remaining.
func (r *Request) TestDeadline(deadline time.Duration) (Status, bool, error) {
	if st, ok := r.Test(); ok {
		return st, true, st.Err
	}
	if r.proc.eng.Now() >= deadline {
		return Status{}, false, ErrTimedOut
	}
	return Status{}, false, nil
}

// Test invokes one progress pass and reports completion (MPI_Test).
func (r *Request) Test() (Status, bool) {
	if r.flag.IsSet() {
		r.observed()
		return r.status, true
	}
	r.proc.StreamProgress(r.stream())
	if r.flag.IsSet() {
		r.observed()
		return r.status, true
	}
	return Status{}, false
}

// WaitAll waits for every request (MPI_Waitall) and returns their
// statuses in order.
func WaitAll(reqs ...*Request) []Status {
	out := make([]Status, len(reqs))
	for i, r := range reqs {
		out[i] = r.Wait()
	}
	return out
}

// TestAll reports whether all requests have completed, invoking one
// progress pass per run of pending requests that share a stream
// (MPI_Testall).
func TestAll(reqs ...*Request) bool {
	progressPending(reqs)
	for _, r := range reqs {
		if !r.flag.IsSet() {
			return false
		}
	}
	return true
}

// progressPending makes one trylock progress pass on the stream of
// every pending request, skipping a stream the previous pending request
// already progressed (requests are typically grouped by communicator,
// so this is one pass per stream without a set), and reports whether
// any pass made progress. A contended stream is being progressed by
// whoever holds it.
func progressPending(reqs []*Request) (made bool) {
	var prev *core.Stream
	for _, r := range reqs {
		if r.flag.IsSet() {
			continue
		}
		s := r.stream()
		if s == prev {
			continue
		}
		prev = s
		if m, _ := r.proc.tryStreamProgress(s); m {
			made = true
		}
	}
	return made
}

// firstComplete returns the index of the first completed request, or
// -1.
func firstComplete(reqs []*Request) int {
	for i, r := range reqs {
		if r.flag.IsSet() {
			return i
		}
	}
	return -1
}

// awaitAny parks the caller until at least one request completes,
// try-progressing every pending request's stream each round.
func awaitAny(reqs []*Request) {
	r0 := reqs[0]
	r0.stream().Await(
		func() bool { return firstComplete(reqs) >= 0 },
		nil,
		func() bool { return progressPending(reqs) },
	)
}

// WaitAny blocks until at least one request completes and returns its
// index and status (MPI_Waitany). It panics on an empty slice.
// Requests on different streams all advance every round.
func WaitAny(reqs ...*Request) (int, Status) {
	if len(reqs) == 0 {
		panic("mpi: WaitAny with no requests")
	}
	awaitAny(reqs)
	i := firstComplete(reqs)
	return i, reqs[i].status
}

// WaitSome blocks until at least one request completes and returns the
// indices of every completed request (MPI_Waitsome). It panics on an
// empty slice. Completed requests stay in the caller's slice here, so
// a caller looping until enough of them are done passes finished ones
// back in: like TestSome, every call makes a pass before it looks, or
// that loop would never advance the rest.
func WaitSome(reqs ...*Request) []int {
	if len(reqs) == 0 {
		panic("mpi: WaitSome with no requests")
	}
	progressPending(reqs)
	awaitAny(reqs)
	return completed(reqs)
}

// TestSome returns the indices of currently completed requests after
// one progress pass per run of pending requests that share a stream
// (MPI_Testsome); nil, and no allocation, when none has completed.
func TestSome(reqs ...*Request) []int {
	progressPending(reqs)
	return completed(reqs)
}

// completed lists the indices of the completed requests.
func completed(reqs []*Request) []int {
	var done []int
	for i, r := range reqs {
		if r.flag.IsSet() {
			done = append(done, i)
		}
	}
	return done
}

// TestAny reports the first completed request, invoking one progress
// pass if none is complete yet (MPI_Testany).
func TestAny(reqs ...*Request) (int, Status, bool) {
	i := firstComplete(reqs)
	if i < 0 && len(reqs) > 0 {
		reqs[0].proc.StreamProgress(reqs[0].stream())
		i = firstComplete(reqs)
	}
	if i < 0 {
		return -1, Status{}, false
	}
	return i, reqs[i].status, true
}
