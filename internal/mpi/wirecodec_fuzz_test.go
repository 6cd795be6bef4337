package mpi

import (
	"bytes"
	"errors"
	"testing"

	"gompix/internal/datatype"
)

// FuzzWireCodecDecode drives the wire decoder with hostile frames —
// the byte stream a TCP peer (or an attacker holding the socket)
// controls entirely. The decoder's contract under arbitrary input:
// never panic, never over-read, and either return a structurally
// consistent header or an error. Frames that survive a decode are
// re-encoded and re-decoded to check the codec round-trips its own
// output (envelope fields and payload identical), which pins the
// header layout against accidental format drift.
//
// The committed corpus (testdata/fuzz/FuzzWireCodecDecode) seeds the
// paths hardened in the transport: truncated headers, payload lengths
// overrunning the frame, unknown kind bytes, and a valid frame of
// every protocol kind.
func FuzzWireCodecDecode(f *testing.F) {
	// Truncated: empty, one byte, one short of a full header.
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xff}, wireHdrLen-1))
	// Minimal valid frame: zero header, zero payload length.
	f.Add(make([]byte, wireHdrLen))
	// Payload length overruns the frame.
	over := make([]byte, wireHdrLen)
	over[58] = 0x10 // plen = 16, but no payload bytes follow
	f.Add(over)
	// plen near max uint32 (overflow probing on the length check).
	huge := make([]byte, wireHdrLen+4)
	for i := 58; i < 62; i++ {
		huge[i] = 0xff
	}
	f.Add(huge)
	// A hostile kind byte on an otherwise valid frame: refused, since
	// handleNetMsg has no arm for it (kind-past-last in the corpus is
	// the first undefined value).
	badKind := make([]byte, wireHdrLen)
	badKind[0] = 0xee
	f.Add(badKind)
	// A well-formed eager frame with payload, via the real encoder.
	var codec wireCodec
	valid, err := codec.Encode(nil, &wireHdr{
		kind: kindEagerMsg, src: 1, ctx: 2, tag: 3, bytes: 4,
		payload: []byte("payload"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Negative message size and negative chunk offset: both used to
	// decode, and the offset indexed the receive buffer.
	for _, h := range hostileHdrs() {
		enc, err := codec.Encode(nil, h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.Decode(data)
		if err != nil {
			return // rejected input is a correct outcome
		}
		h, ok := v.(*wireHdr)
		if !ok {
			t.Fatalf("Decode returned %T, want *wireHdr", v)
		}
		// Sizes and offsets index buffers downstream; the kind picks the
		// handler.
		if h.bytes < 0 || h.off < 0 || h.kind >= numMsgKinds {
			t.Fatalf("decoded frame carries kind=%d bytes=%d off=%d", h.kind, h.bytes, h.off)
		}
		// Decoded pointers must be nil: they never cross the wire, and a
		// non-nil value would be interpreted as an in-process fast path.
		if h.sreq != nil || h.rreq != nil {
			t.Fatalf("decoded frame carries in-process pointers: sreq=%v rreq=%v", h.sreq, h.rreq)
		}
		// The payload must be a private copy, not an alias of the input.
		if len(h.payload) > 0 && len(data) >= wireHdrLen+len(h.payload) &&
			&h.payload[0] == &data[wireHdrLen] {
			t.Fatal("decoded payload aliases the frame buffer")
		}
		// Round-trip: encode the decoded header and decode it again.
		enc, err := codec.Encode(nil, h)
		if err != nil {
			t.Fatalf("re-encoding a decoded header: %v", err)
		}
		v2, err := codec.Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded header: %v", err)
		}
		h2 := v2.(*wireHdr)
		if h2.kind != h.kind || h2.src != h.src || h2.ctx != h.ctx ||
			h2.tag != h.tag || h2.bytes != h.bytes || h2.srcEP != h.srcEP ||
			h2.sreqID != h.sreqID || h2.rreqID != h.rreqID ||
			h2.flow != h.flow || h2.off != h.off || h2.last != h.last {
			t.Fatalf("round-trip envelope mismatch:\n first=%+v\nsecond=%+v", h, h2)
		}
		if !bytes.Equal(h2.payload, h.payload) {
			t.Fatalf("round-trip payload mismatch: %q != %q", h2.payload, h.payload)
		}
		recycleHdr(h2)
		recycleHdr(h)
	})
}

// hostileHdrs are frames a corrupt or hostile peer could send: fields
// that are sizes or offsets, negative (DATA for a live receive handle,
// an RTS), and a kind past the last defined one.
func hostileHdrs() []*wireHdr {
	return []*wireHdr{
		{kind: kindDataMsg, rreqID: 1, bytes: -1, payload: []byte("x")},
		{kind: kindDataMsg, rreqID: 1, bytes: 1024, off: -8, payload: []byte("x")},
		{kind: kindRTSMsg, sreqID: 1, bytes: -1 << 31},
		{kind: numMsgKinds, src: 1, ctx: 2},
	}
}

// TestHostileDataFrame: a DATA frame that names a live receive handle
// but lies about where its bytes go must fail the peer — and with it
// the receive — not index past the receive buffer. Negative sizes and
// offsets, and undefined kinds, are turned away by the decoder (the
// transports then drop the connection or condemn the stream); an offset
// past the end of the message is caught at delivery.
func TestHostileDataFrame(t *testing.T) {
	var codec wireCodec
	for i, h := range hostileHdrs() {
		enc, err := codec.Encode(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.Decode(enc); err == nil {
			t.Errorf("hostile header %d decoded", i)
		}
		if _, err := codec.DecodeOwned(enc, enc); err == nil {
			t.Errorf("hostile header %d decoded (owned)", i)
		}
	}

	worlds := tcpWorlds(t, 2, Config{})
	defer worlds[0].Close()
	defer worlds[1].Close()
	p := worlds[0].Proc(0)
	v := p.vcis[0]
	for _, dt := range []*datatype.Datatype{datatype.Byte, datatype.Vector(512, 1, 2, datatype.Byte)} {
		const total = 512
		req := &Request{
			kind: kindRecv, vci: v, proc: p,
			recvBuf: make([]byte, datatype.BufferSpan(total/dt.Size(), dt)), recvCount: total / dt.Size(), recvDT: dt,
		}
		prepareRndvRecv(req, 1, 0, total)
		req.peerWorld = 1 + 1
		id := v.registerRecv(req)
		enc, err := codec.Encode(nil, &wireHdr{
			kind: kindDataMsg, rreqID: id, bytes: total, off: total - 4, last: true,
			payload: bytes.Repeat([]byte{0xAB}, 64),
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.Decode(enc)
		if err != nil {
			t.Fatalf("an offset inside the message is not the decoder's to judge: %v", err)
		}
		v.handleNetMsg(dec.(*wireHdr)) // used to panic: slice bounds out of range
		if !req.IsComplete() || !errors.Is(req.Status().Err, ErrProcFailed) {
			t.Fatalf("%s: receive after a chunk past its end: complete=%v status=%+v",
				dt.Name(), req.IsComplete(), req.Status())
		}
		if v.lookupRecv(id) != nil {
			t.Fatalf("%s: failed receive still registered", dt.Name())
		}
	}
}
