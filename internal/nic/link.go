package nic

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
)

// Link is the transport-neutral NIC boundary: everything the MPI netmod
// (and the Reliable layer) needs from a communication endpoint, every
// method called directly — a link answers the ones it has no use for
// with a no-op rather than leaving them out. The simulated *Endpoint
// implements it over the in-process fabric; the byte transports
// (internal/transport/tcp, internal/transport/shm, and the composite
// router over the two) implement it over sockets and mmap rings, and
// *Reliable around any of them. The contract mirrors the queue-pair
// model the paper's progress engine polls:
//
//   - PostSendInline: buffered fire-and-forget injection; no completion
//     is signaled. Every link encodes the payload through its codec
//     before returning, so the memory it references is the caller's
//     again at once.
//   - PostSend: signaled injection; a CQE carrying token is posted when
//     the transmission completes (or fails — CQE.Err). Until then the
//     link may read the memory the payload references (a byte transport
//     sends a large body from where it is), and not afterwards.
//   - DrainCQ/DrainRQ: zero-allocation batch drains of the completion
//     and receive queues, driven only by MPI progress.
//   - QueuedCQ/QueuedRQ: one-atomic-load emptiness checks so an idle
//     netmod pass costs nothing.
//   - SetArm/Flush/PendingTx: the send side's deferred work (write
//     coalescing) — arm a flush, run it, count what it still owes.
//   - PollRecv/Parking: the receive side's work on the caller's thread —
//     look for input each pass, make a sleep safe before a park.
type Link interface {
	// ID returns the link's fabric-wide endpoint address.
	ID() fabric.EndpointID
	// PostSendInline injects a buffered message with no completion.
	PostSendInline(dst fabric.EndpointID, payload any, bytes int) error
	// PostSend injects a message and posts a CQE carrying token when the
	// transmission completes.
	PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error
	// DrainCQ moves up to cap(buf) completions into buf[:0].
	DrainCQ(buf []CQE) []CQE
	// DrainRQ moves up to cap(buf) arrived packets into buf[:0].
	DrainRQ(buf []fabric.Packet) []fabric.Packet
	// QueuedCQ returns the number of unpolled completion entries.
	QueuedCQ() int
	// QueuedRQ returns the number of unpolled arrived packets.
	QueuedRQ() int
	// BindWork attaches the owning stream's netmod work counter; every
	// queued CQE or arrival adds one unit — those queued before the
	// bind are added by it — every drained entry removes one, and a
	// link that finds its input by being polled (PollRecv) keeps one
	// more there until Close.
	BindWork(w WorkCounter)
	// Now returns the link's clock (the fabric clock for the simulated
	// endpoint, wall time for socket transports). CQE.At and the
	// Reliable layer's retransmission deadlines live on this clock.
	Now() time.Duration
	// Close releases the link's resources. Posting after Close fails.
	Close() error

	// SetArm registers the callback the link invokes — outside its
	// internal locks — whenever its pending output goes from none to
	// some; the MPI layer points it at an async flush thing on the
	// owning stream, so socket writes and ring pumps flow through
	// Stream.Progress like every other subsystem. Set before traffic
	// flows.
	SetArm(arm func())
	Flusher
	// PendingTx reports frames posted but not yet on the wire, so
	// Quiesce-style drains can account for them.
	PendingTx() int
	RxPoller
	// Parking is the consumer's side of the park handshake, for
	// producers that cannot reach the owning stream's wake channel by
	// themselves. Every in-process arrival already wakes a parked waiter
	// through the bound WorkCounter. The shm rings' producers run in
	// another process and publish into shared memory; they read a word
	// the consumer publishes instead. The tcp link's producer is the
	// kernel, announced by a watcher goroutine that hears of input only
	// when the runtime visits its netpoller, which a P kept busy by
	// other ranks does not. The stream's wait loop calls Parking after
	// its last empty pass and before sleeping; the link does what makes
	// the sleep safe — publishes "ring me", reads the sockets nobody has
	// flagged — re-checks what such producers may have delivered
	// meanwhile, and reports whether sleeping is still safe (false: an
	// arrival is already visible, poll again).
	Parking() bool
	// UseMetrics wires the link's instruments to the registry under the
	// given scope prefix (e.g. "rank0.vci0.nic"); a nil registry is a
	// no-op. Call before traffic flows.
	UseMetrics(reg *metrics.Registry, scope string)
}

// Flusher is the progress half of SetArm: Flush pushes pending
// coalesced output toward the wire. It reports whether anything moved
// and whether the link disarmed itself (no pending output left — the
// async thing should return Done; the next post re-arms).
type Flusher interface {
	Flush() (made, idle bool)
}

// RxPoller is the receive side on the caller's thread: PollRecv looks
// for input without blocking, decodes any complete frames straight into
// the link receive queues, and reports whether anything arrived. The
// MPI netmod calls it at the top of its progress poll so ingest work
// rides the paper's explicit progress path instead of waking background
// goroutines. A link that finds its input this way (the byte
// transports: the TCP reactor, the shm rings) might make progress on
// any pass, so it holds a unit on the bound work counter for as long as
// it is open, and owes the caller an empty poll that is cheap.
type RxPoller interface {
	PollRecv() (made bool)
}

// Codec translates link payloads to and from wire bytes. Every link
// runs one: the byte transports on their way through sockets and rings,
// the simulated endpoint and a byte link's send to its own process on
// their way through RoundTrip.
type Codec interface {
	// Encode appends the wire encoding of payload to buf and returns the
	// extended slice.
	Encode(buf []byte, payload any) ([]byte, error)
	// Decode parses one encoded payload. The input slice is only valid
	// during the call; any retained data must be copied.
	Decode(data []byte) (any, error)
}

// SplitCodec is implemented by codecs whose payloads end in a byte body
// that need not be copied on its way through a transport. The byte
// transports probe for it once, in SetCodec, and RoundTrip on each call;
// a codec without it keeps the copying path on both sides.
type SplitCodec interface {
	Codec
	// EncodeSplit appends to buf everything Encode would except the
	// payload's trailing body, which it returns un-copied: the wire
	// encoding is head followed by body. body aliases memory the
	// payload references and is only as stable as that memory — a
	// transport may hold it (instead of copying it) only for a signaled
	// post, and must drop it before posting the CQE.
	EncodeSplit(buf []byte, payload any) (head, body []byte, err error)
	// DecodeOwned is Decode for a frame assembled in a GetStaging
	// buffer that the caller hands over: frame is data's whole buffer
	// (data is a suffix of it), the returned payload may alias data,
	// and whoever consumes the payload returns frame with PutStaging.
	// On error the buffer stays with the caller.
	DecodeOwned(frame, data []byte) (any, error)
	// Place asks, for a frame from endpoint src to endpoint dst of which
	// only the beginning has arrived, where its body belongs: head is what has
	// arrived of the size bytes Encode produced. A codec that knows —
	// the body is a chunk of a receive it can name — returns body, the
	// destination of the frame's last len(body) bytes (everything before
	// them is the codec's header and lies within head), and p, which
	// holds the destination until the transport has written it: p.Finish
	// once the body is complete, p.Drop if it never will be, exactly one
	// of the two. need > len(head) with a nil p asks to be asked again
	// once need bytes have arrived; anything else is no: the transport
	// assembles the frame itself and decodes it as usual.
	Place(dst, src fabric.EndpointID, size int, head []byte) (body []byte, p Placement, need int)
}

// Placement is a frame body SplitCodec.Place gave a home: whatever the
// destination belongs to stays reserved until Finish or Drop.
type Placement interface {
	// Finish releases the destination and returns the frame's payload,
	// delivered like a decoded one; its body is where Place put it.
	Finish() (payload any)
	// Drop releases the destination of a frame that will never be
	// complete (the stream failed or closed).
	Drop()
}

// ByteCodec is the codec of links whose payloads are byte slices, and
// the simulated endpoint's until SetCodec installs another: a []byte
// travels as it is, and decodes into a copy.
type ByteCodec struct{}

func (ByteCodec) Encode(buf []byte, payload any) ([]byte, error) {
	b, ok := payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("nic: ByteCodec cannot encode %T", payload)
	}
	return append(buf, b...), nil
}

func (ByteCodec) Decode(data []byte) (any, error) { return append([]byte(nil), data...), nil }

// scratchPool holds the encodings RoundTrip decodes from.
var scratchPool = sync.Pool{New: func() any { return new(stagingBox) }}

// RoundTrip passes payload through c as a frame crosses a wire, for a
// post no wire carries: the simulated endpoint's, and a byte link's to
// its own process. Nothing the result references is the poster's. A
// body the codec splits off is copied once, behind the head, into a
// GetStaging frame that DecodeOwned takes over; a frame without one is
// decoded from a pooled scratch encoding.
func RoundTrip(c Codec, payload any) (p any, err error) {
	box := scratchPool.Get().(*stagingBox)
	defer scratchPool.Put(box)
	if split, ok := c.(SplitCodec); ok {
		var body []byte
		if box.b, body, err = split.EncodeSplit(box.b[:0], payload); err == nil && len(body) > 0 {
			frame := GetStaging(len(box.b) + len(body))
			copy(frame[copy(frame, box.b):], body)
			return split.DecodeOwned(frame, frame)
		}
	} else {
		box.b, err = c.Encode(box.b[:0], payload)
	}
	if err != nil {
		return nil, err
	}
	return c.Decode(box.b)
}

// Now returns the fabric clock time (Link implementation).
func (ep *Endpoint) Now() time.Duration { return ep.net.Clock().Now() }

// Close is a no-op for the simulated endpoint: the fabric owns the
// shared scheduler and is stopped by the world (Link implementation).
func (ep *Endpoint) Close() error { return nil }

// The simulated endpoint's answers to the transport's own progress: the
// fabric puts every post on the wire and every arrival in the receive
// queue by itself — nothing to arm, flush or poll for, no polling unit
// held — and every producer is in this process, waking a parked waiter
// through the bound work counter (Link implementation).
func (ep *Endpoint) SetArm(func())            {}
func (ep *Endpoint) Flush() (made, idle bool) { return false, true }
func (ep *Endpoint) PendingTx() int           { return 0 }
func (ep *Endpoint) PollRecv() bool           { return false }
func (ep *Endpoint) Parking() bool            { return true }

// relCodec wires the Reliable layer's frame envelope through a Codec
// for byte-oriented transports: a relFrame rides as a fixed header
// (kind, seq, cumulative ack, source endpoint, payload size) followed,
// in a data frame, by the payload the layer encoded at post, which the
// receiving side decodes with the wrapped codec.
type relCodec struct {
	inner Codec
}

// RelCodec returns a Codec for the Reliable layer's wire envelope,
// decoding the wrapped payload with inner — the codec the layer
// encodes it with (NewReliable). Use it as the link codec whenever a
// Reliable wraps a link. The result is a SplitCodec when inner is one.
func RelCodec(inner Codec) Codec {
	if s, ok := inner.(SplitCodec); ok {
		return relSplitCodec{relCodec{inner: inner}, s}
	}
	return relCodec{inner: inner}
}

const relCodecHdr = 1 + 8 + 8 + 8 + 4 // kind, seq, ack, src, bytes

// appendEnvelope appends the envelope header of f and the encoded
// payload's head.
func appendEnvelope(buf []byte, payload any) ([]byte, *relFrame, error) {
	f, ok := payload.(*relFrame)
	if !ok {
		return nil, nil, fmt.Errorf("nic: RelCodec cannot encode %T", payload)
	}
	var hdr [relCodecHdr]byte
	hdr[0] = f.kind
	binary.LittleEndian.PutUint64(hdr[1:], f.seq)
	binary.LittleEndian.PutUint64(hdr[9:], f.ack)
	binary.LittleEndian.PutUint64(hdr[17:], uint64(f.src))
	binary.LittleEndian.PutUint32(hdr[25:], uint32(f.bytes))
	return append(append(buf, hdr[:]...), f.head...), f, nil
}

// parseEnvelope parses the envelope header; a data frame's payload
// follows it.
func parseEnvelope(data []byte) (*relFrame, error) {
	if len(data) < relCodecHdr {
		return nil, fmt.Errorf("nic: RelCodec short frame (%d bytes)", len(data))
	}
	if data[0] > relAck {
		return nil, fmt.Errorf("nic: RelCodec unknown frame kind %d", data[0])
	}
	return &relFrame{
		kind:  data[0],
		seq:   binary.LittleEndian.Uint64(data[1:]),
		ack:   binary.LittleEndian.Uint64(data[9:]),
		src:   fabric.EndpointID(binary.LittleEndian.Uint64(data[17:])),
		bytes: int(binary.LittleEndian.Uint32(data[25:])),
	}, nil
}

func (c relCodec) Encode(buf []byte, payload any) ([]byte, error) {
	buf, f, err := appendEnvelope(buf, payload)
	if err != nil {
		return nil, err
	}
	return append(buf, f.body...), nil
}

func (c relCodec) Decode(data []byte) (any, error) {
	f, err := parseEnvelope(data)
	if err != nil || f.kind != relData {
		return f, err
	}
	if f.inner, err = c.inner.Decode(data[relCodecHdr:]); err != nil {
		return nil, err
	}
	return f, nil
}

// relSplitCodec is relCodec over an inner SplitCodec: the envelope
// and the payload's head ride in the head, and the payload's body
// stays un-copied.
type relSplitCodec struct {
	relCodec
	split SplitCodec
}

func (c relSplitCodec) EncodeSplit(buf []byte, payload any) (head, body []byte, err error) {
	buf, f, err := appendEnvelope(buf, payload)
	if err != nil {
		return nil, nil, err
	}
	return buf, f.body, nil
}

func (c relSplitCodec) DecodeOwned(frame, data []byte) (any, error) {
	f, err := parseEnvelope(data)
	if err != nil || f.kind != relData {
		return f, err // a bare envelope references nothing in frame
	}
	if f.inner, err = c.split.DecodeOwned(frame, data[relCodecHdr:]); err != nil {
		return nil, err
	}
	return f, nil
}

// Place places nothing: a frame under the reliability layer may be a
// retransmission or a duplicate, whose body must not land twice.
func (relSplitCodec) Place(fabric.EndpointID, fabric.EndpointID, int, []byte) ([]byte, Placement, int) {
	return nil, nil, 0
}
