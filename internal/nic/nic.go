// Package nic simulates a network interface card on top of the fabric.
//
// The NIC is where the paper's "wait blocks" come from (paper §2.1,
// Fig. 1): the CPU initiates an operation, the NIC performs it
// asynchronously, and completion must be *polled* — by MPI progress —
// from the completion queue (CQ) for sends and the receive queue (RQ)
// for arrivals. Two send flavors model the MPICH distinction:
//
//   - inline sends (PostSendInline): the payload is copied into the
//     NIC at injection — encoded through the link's codec — so the
//     sender's buffer is immediately reusable and no completion is
//     signaled — the "lightweight send" with zero wait blocks (Fig. 1a).
//   - signaled sends (PostSend): the buffer is handed to the NIC,
//     which may read it (a byte transport sends a large body from
//     where it is) until a completion entry is posted to the CQ when
//     the wire transmission finishes — one wait block (Fig. 1b).
package nic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/fabric"
)

// CQE is a completion-queue entry: the token identifies the completed
// send descriptor (typically a request pointer).
type CQE struct {
	Token any
	// At is the fabric time the transmission completed (for the
	// Reliable layer: the time the frame was cumulatively acknowledged
	// or failed).
	At time.Duration
	// Err is nil for a successful completion. A send that failed
	// carries ErrLinkDown: bare from the Reliable layer, which fails
	// its unacknowledged frames to a peer once a verdict condemns it;
	// from a byte transport wrapped around the cause, as ErrPeerDown
	// after a verdict.
	Err error
}

// ErrPeerDown, which wraps ErrLinkDown, fails a byte transport's send
// that its destination's verdict found queued, or that came after it.
var ErrPeerDown = fmt.Errorf("%w: peer failed", ErrLinkDown)

// PeerDown is a CQE token carried by control completions that report a
// peer-failure verdict rather than a completed send. Every transport
// reaches one from liveness evidence and pushes it on each of the
// rank's links: tcp when it loses a connection to the peer, shm when
// the peer's flock is released, the simulated fabric when a post meets
// a partition that never heals (transport.Sim). The CQE's
// Err wraps ErrLinkDown around the cause. Consumers that poll the CQ
// (the MPI netmod, the Reliable layer) translate it into
// process-failure semantics; it never corresponds to a posted
// descriptor.
type PeerDown struct {
	// Rank is the world rank of the failed peer.
	Rank int
}

// WorkCounter is the owning stream's netmod work counter (satisfied by
// *core.Work), which lets a progress pass skip an idle netmod on one
// atomic load. A producer counts each CQE or RQ packet before it
// becomes drainable (Add(+n)) and announces it after (Arrived), and
// the drain removes what it took (Add(-n)), so the counter never reads
// below the queued depth (Queue). A nil counter disables the
// accounting.
type WorkCounter interface {
	// Add adjusts the count by delta.
	Add(delta int)
	// Arrived wakes a waiter parked on the owning stream.
	Arrived()
}

// Endpoint is one simulated NIC port attached to the fabric.
type Endpoint struct {
	net   *fabric.Network
	id    fabric.EndpointID
	codec Codec // every post crosses it (SetCodec)

	// complete posts a signaled send's CQE when the wire finishes
	// sending it: the method value is bound once here, and the token
	// rides in the scheduled event's packet, txDone in its due time.
	complete fabric.Handler
	// onCut is told of every post between nodes a permanent partition
	// cuts (OnCut).
	onCut func(dst fabric.EndpointID)

	// TX serialization: the wire is busy until nextFree.
	txMu     sync.Mutex
	nextFree time.Duration

	// CQ: send completions, appended by the fabric scheduler; RQ:
	// arrived packets. Both are drained by netmod progress, and a bound
	// work counter mirrors their combined depth.
	cq Queue[CQE]
	rq Queue[fabric.Packet]

	// Counters.
	sent      atomic.Uint64
	received  atomic.Uint64
	completed atomic.Uint64

	// met is the optional observability wiring (UseMetrics).
	met *epMetrics
}

// NewEndpoint attaches a new NIC endpoint on the given node.
func NewEndpoint(net *fabric.Network, node int) *Endpoint {
	ep := &Endpoint{net: net, codec: ByteCodec{}}
	ep.id = net.Attach(node, ep.deliver)
	ep.complete = ep.completion
	return ep
}

// SetCodec installs the codec every post crosses before the fabric
// carries it — the world's, as on every byte link; until then the
// endpoint carries []byte payloads (ByteCodec). Set before traffic
// flows.
func (ep *Endpoint) SetCodec(c Codec) { ep.codec = c }

// OnCut installs the function told of the destination of every post
// between nodes a permanent partition cuts in either direction
// (fabric.ErrCut); the post itself succeeds, whether the fabric dropped
// it or delivered it. Set before traffic flows.
func (ep *Endpoint) OnCut(f func(dst fabric.EndpointID)) { ep.onCut = f }

// ReportPeerDown posts the control completion of a failure verdict on
// rank: token PeerDown{rank}, Err wrapping ErrLinkDown around cause.
func (ep *Endpoint) ReportPeerDown(rank int, cause error) {
	ep.cq.Push(CQE{Token: PeerDown{Rank: rank}, At: ep.Now(), Err: fmt.Errorf("%w: %v", ErrLinkDown, cause)})
}

// BindWork attaches a stream work counter: it starts at the entries
// already queued, every later completion or arrival adds one unit, and
// every drained entry removes one (Queue.Bind).
func (ep *Endpoint) BindWork(w WorkCounter) {
	ep.cq.Bind(w)
	ep.rq.Bind(w)
}

// ID returns the fabric address of this endpoint.
func (ep *Endpoint) ID() fabric.EndpointID { return ep.id }

// Network returns the attached fabric.
func (ep *Endpoint) Network() *fabric.Network { return ep.net }

// Node returns the node this endpoint lives on.
func (ep *Endpoint) Node() int { return ep.net.Node(ep.id) }

func (ep *Endpoint) deliver(p fabric.Packet) {
	n := ep.rq.Push(p)
	ep.received.Add(1)
	if m := ep.met; m != nil && m.reg.On() {
		m.rqDepth.Set(n)
		m.received.Inc()
	}
}

// reserveTx serializes a transmission of the given size on this
// endpoint's wire and returns the time the wire finishes sending it.
func (ep *Endpoint) reserveTx(bytes int) time.Duration {
	now := ep.net.Clock().Now()
	ser := ep.net.SerializationTime(bytes)
	ep.txMu.Lock()
	start := ep.nextFree
	if now > start {
		start = now
	}
	done := start + ser
	ep.nextFree = done
	ep.txMu.Unlock()
	return done
}

// PostSendInline injects a small message the NIC copies at injection:
// the payload crosses the codec before this returns, so the caller's
// buffer is free at once, and no completion is generated. It returns
// fabric.ErrStopped if the network has been stopped.
func (ep *Endpoint) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	_, err := ep.transmit(dst, payload, bytes)
	return err
}

// PostSend injects a message and posts a CQE carrying token when the
// wire transmission completes. The payload crosses the codec at post,
// as an inline one does. It returns fabric.ErrStopped (and posts no
// CQE) if the network has been stopped.
func (ep *Endpoint) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	txDone, err := ep.transmit(dst, payload, bytes)
	if err != nil {
		return err
	}
	ep.net.Scheduler().Schedule(txDone, ep.complete, fabric.Packet{Payload: token})
	return nil
}

func (ep *Endpoint) completion(txDone time.Duration, p fabric.Packet) {
	n := ep.cq.Push(CQE{Token: p.Payload, At: txDone})
	ep.completed.Add(1)
	if m := ep.met; m != nil && m.reg.On() {
		m.cqDepth.Set(n)
		m.completed.Inc()
	}
}

// transmit hands the fabric what payload decodes to on the far side of
// the codec (RoundTrip) and returns when the wire finishes sending it.
// A packet between nodes a permanent partition cuts is reported to the
// OnCut function; the fabric dropped it or, when only the way back is
// cut, delivered it.
func (ep *Endpoint) transmit(dst fabric.EndpointID, payload any, bytes int) (time.Duration, error) {
	dec, err := RoundTrip(ep.codec, payload)
	if err != nil {
		return 0, err
	}
	txDone := ep.reserveTx(bytes)
	ep.sent.Add(1)
	if m := ep.met; m != nil && m.reg.On() {
		m.sent.Inc()
	}
	err = ep.net.Transmit(fabric.Packet{Src: ep.id, Dst: dst, Payload: dec, Bytes: bytes}, txDone)
	if err == fabric.ErrCut {
		if ep.onCut != nil {
			ep.onCut(dst)
		}
		err = nil
	}
	return txDone, err
}

// DrainCQ moves up to cap(buf) completion entries into buf[:0] and
// returns the filled slice — one lock acquisition per batch, zero
// allocations. An empty drain costs one atomic load. The entries are
// owned by the caller until the next DrainCQ with the same buffer.
func (ep *Endpoint) DrainCQ(buf []CQE) []CQE {
	buf = ep.cq.Drain(buf)
	if m := ep.met; len(buf) > 0 && m != nil && m.reg.On() {
		m.cqDepth.Set(int64(ep.cq.Len()))
	}
	return buf
}

// DrainRQ is DrainCQ for arrived packets.
func (ep *Endpoint) DrainRQ(buf []fabric.Packet) []fabric.Packet {
	buf = ep.rq.Drain(buf)
	if m := ep.met; len(buf) > 0 && m != nil && m.reg.On() {
		m.rqDepth.Set(int64(ep.rq.Len()))
	}
	return buf
}

// QueuedCQ returns the number of unpolled completion entries.
func (ep *Endpoint) QueuedCQ() int { return ep.cq.Len() }

// QueuedRQ returns the number of unpolled arrived packets.
func (ep *Endpoint) QueuedRQ() int { return ep.rq.Len() }

// Stats reports lifetime counters.
func (ep *Endpoint) Stats() (sent, received, completed uint64) {
	return ep.sent.Load(), ep.received.Load(), ep.completed.Load()
}
