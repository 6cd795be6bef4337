package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"gompix/internal/datatype"
	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/transport/framing"
)

// FuzzWireCodecDecode drives the wire decoder with hostile frames —
// the byte stream a TCP peer (or an attacker holding the socket)
// controls entirely. The decoder's contract under arbitrary input:
// never panic, never over-read, and either return a structurally
// consistent header or an error. Frames that survive a decode are
// re-encoded and re-decoded to check the codec round-trips its own
// output (envelope fields and payload identical), which pins the
// header layout against accidental format drift. Every DATA header is
// also offered to a live receive for direct placement (checkPlacement).
//
// The committed corpus (testdata/fuzz/FuzzWireCodecDecode) seeds the
// paths hardened in the transport: truncated headers, payload lengths
// overrunning the frame, unknown kind bytes, a chunk overflowing its
// message, and a valid frame of every protocol kind — an RTS that
// advertises its sender's address and the FIN that answers it among
// them.
func FuzzWireCodecDecode(f *testing.F) {
	// Truncated: empty, one byte, one short of a full header.
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(bytes.Repeat([]byte{0xff}, wireHdrLen-1))
	// Minimal valid frame: zero header, zero payload length.
	f.Add(make([]byte, wireHdrLen))
	// Payload length overruns the frame.
	over := make([]byte, wireHdrLen)
	over[66] = 0x10 // plen = 16, but no payload bytes follow
	f.Add(over)
	// plen near max uint32 (overflow probing on the length check).
	huge := make([]byte, wireHdrLen+4)
	for i := 66; i < 70; i++ {
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
	// An advertised RTS and its FIN: the address and the status travel.
	for _, h := range []*wireHdr{
		{kind: kindRTSMsg, src: 1, ctx: 2, tag: 3, bytes: 1 << 20, srcEP: 5, sreqID: 9, addr: 0x7f00_dead_b000},
		{kind: kindFinMsg, sreqID: 9, off: int(finRevoked)},
	} {
		enc, err := codec.Encode(nil, h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Negative message size and negative chunk offset: both used to
	// decode, and the offset indexed the receive buffer. And a chunk for
	// the live receive that overflows the message it announced: it
	// decodes, and must not be placed.
	for _, h := range append(hostileHdrs(), overflowChunk(1, fuzzRecvTotal, 64)) {
		enc, err := codec.Encode(nil, h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, plen, err := readHdr(data); err == nil {
			if h.kind == kindDataMsg {
				checkPlacement(t, h, plen)
			}
			recycleHdr(h)
		}
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
			h2.flow != h.flow || h2.off != h.off || h2.last != h.last || h2.addr != h.addr {
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

// overflowChunk is the last DATA chunk, n bytes, of a total-byte
// message for receive handle id: it starts inside the message and runs
// past its end — well-formed on the wire, a lie about where its bytes
// go, and one a receive buffer larger than the message would hold.
func overflowChunk(id uint64, total, n int) *wireHdr {
	return &wireHdr{
		kind: kindDataMsg, rreqID: id, bytes: total, off: total - 4, last: true,
		payload: bytes.Repeat([]byte{0xAB}, n),
	}
}

// fuzzRecvTotal is the message size of the live receive (handle 1)
// that FuzzWireCodecDecode places DATA chunks into.
const fuzzRecvTotal = 512

// checkPlacement offers a decoded DATA header to a live contiguous
// receive of a fuzzRecvTotal-byte message into a buffer twice that
// size: the chunk gets a window of the buffer only if it names the
// handle and fits the message, and then exactly the window its offset
// and length say.
func checkPlacement(t *testing.T, h *wireHdr, plen int) {
	t.Helper()
	v := &VCI{recvs: make(map[uint64]*Request)}
	buf := make([]byte, 2*fuzzRecvTotal)
	req := &Request{kind: kindRecv, vci: v, recvBuf: buf, recvCount: len(buf), recvDT: datatype.Byte, total: fuzzRecvTotal, peerWorld: 1 + 1}
	v.recvs[1] = req
	got, body := v.placeChunk(h.rreqID, h.off, plen, 1)
	fits := h.rreqID == 1 && h.off+plen <= fuzzRecvTotal
	if (got != nil) != fits {
		t.Fatalf("chunk [%d,+%d) for handle %d: placed=%v, want %v", h.off, plen, h.rreqID, got != nil, fits)
	}
	if got == nil {
		return
	}
	if len(body) != plen || cap(body) != plen || plen > 0 && &body[0] != &buf[h.off] {
		t.Fatalf("chunk [%d,+%d) placed into a window of %d (cap %d) bytes elsewhere", h.off, plen, len(body), cap(body))
	}
	got.unpin()
	if req.pins != 0 || req.IsComplete() {
		t.Fatalf("after unpin: %d pins, complete=%v", req.pins, req.IsComplete())
	}
}

// TestHostileDataFrame: a DATA frame that names a live receive handle
// but lies about where its bytes go must fail the peer — and with it
// the receive — not index past the receive buffer. Negative sizes and
// offsets, and undefined kinds, are turned away by the decoder (the
// transports then drop the connection or condemn the stream); an offset
// past the end of the message is caught before any of its bytes land:
// the codec does not place it, so the transport's parser stages it like
// any frame it cannot place, and delivery fails the peer. A chunk that
// fits, in front of it, is placed.
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
	placer := wireCodec{worlds[0]}
	const total = 2 * nic.BulkMin
	for _, dt := range []*datatype.Datatype{datatype.Byte, datatype.Vector(total, 1, 2, datatype.Byte)} {
		// The buffer holds twice the message: only the message's own
		// bounds stop the overflowing chunk.
		count := 2 * total / dt.Size()
		req := &Request{
			kind: kindRecv, vci: v, proc: p,
			recvBuf: make([]byte, datatype.BufferSpan(count, dt)), recvCount: count, recvDT: dt,
		}
		prepareRndvRecv(req, 1, 0, total)
		req.peerWorld = 1 + 1
		id := v.registerRecv(req)
		fits := &wireHdr{kind: kindDataMsg, rreqID: id, bytes: total, payload: bytes.Repeat([]byte{0x11}, nic.BulkMin)}

		// Both chunks through a parser with the world's codec, each in two
		// pieces so that it is assembled rather than parsed whole.
		reg := metrics.New()
		reg.Enable()
		tab := framing.NewTable()
		tab.SetCodec(placer)
		tab.UseMetrics(reg, "test")
		l := new(framing.Link)
		if err := tab.Register(l, v.ep.ID()); err != nil {
			t.Fatal(err)
		}
		var s framing.Stream
		s.Init(tab, nil, 1<<20, func(f framing.Fault) bool { t.Fatalf("%s: fault %v", dt.Name(), f); return false })
		for _, h := range []*wireHdr{fits, overflowChunk(id, total, nic.BulkMin)} {
			enc, err := codec.Encode(nil, h)
			if err != nil {
				t.Fatal(err)
			}
			wire := binary.LittleEndian.AppendUint32(nil, uint32(framing.HdrLen+len(enc)))
			wire = binary.LittleEndian.AppendUint64(wire, uint64(v.ep.ID()))
			wire = binary.LittleEndian.AppendUint64(wire, uint64(worlds[1].Transport().EndpointOf(1, 0)))
			wire = binary.LittleEndian.AppendUint32(wire, uint32(len(h.payload)))
			wire = append(wire, enc...)
			s.Write(wire[:100])
			s.Write(wire[100:])
		}
		s.Flush()
		snap := reg.Snapshot()
		if placed, staged := snap.Counter("test.rx.placed"), snap.Counter("test.rx.staged"); placed != 1 || staged != 1 {
			t.Fatalf("%s: %d chunks placed and %d staged, want the one that fits placed and the other staged", dt.Name(), placed, staged)
		}
		if bytes.IndexByte(req.recvBuf, 0xAB) >= 0 {
			t.Fatalf("%s: the overflowing chunk reached the receive buffer", dt.Name())
		}
		pkts := l.DrainRQ(make([]fabric.Packet, 0, 2))
		if len(pkts) != 2 {
			t.Fatalf("%s: %d frames delivered, want 2", dt.Name(), len(pkts))
		}
		for _, pkt := range pkts {
			v.handleNetMsg(pkt.Payload.(*wireHdr), pkt.Src) // the second used to panic: slice bounds out of range
		}
		if !req.IsComplete() || !errors.Is(req.Status().Err, ErrProcFailed) {
			t.Fatalf("%s: receive after a chunk past its end: complete=%v status=%+v",
				dt.Name(), req.IsComplete(), req.Status())
		}
		if v.lookupRecv(id) != nil || req.pins != 0 {
			t.Fatalf("%s: failed receive still registered, or pinned (%d)", dt.Name(), req.pins)
		}
		if bytes.IndexByte(req.recvBuf, 0xAB) >= 0 {
			t.Fatalf("%s: the overflowing chunk reached the receive buffer", dt.Name())
		}
	}
}

// TestForeignDataFrame: a rendezvous receive handle is bound to the
// rank that sent its RTS. A third rank's DATA frame naming another
// pair's rreqID is neither placed by the codec nor delivered by the
// handler — it is dropped, and the receive's bytes stay as they were —
// while the same chunk from the bound sender lands. The frames pass
// through a stream bound to no peer, so only the MPI layer's check
// stands between them and the receive.
func TestForeignDataFrame(t *testing.T) {
	worlds := tcpWorlds(t, 3, Config{})
	for _, w := range worlds {
		defer w.Close()
	}
	p := worlds[0].Proc(0)
	v := p.vcis[0]
	const total = 2 * nic.BulkMin
	req := &Request{kind: kindRecv, vci: v, proc: p, recvBuf: make([]byte, total), recvCount: total, recvDT: datatype.Byte}
	prepareRndvRecv(req, 1, 0, total)
	req.peerWorld = 1 + 1
	id := v.registerRecv(req)

	reg := metrics.New()
	reg.Enable()
	tab := framing.NewTable()
	tab.SetCodec(wireCodec{worlds[0]})
	tab.UseMetrics(reg, "test")
	l := new(framing.Link)
	if err := tab.Register(l, v.ep.ID()); err != nil {
		t.Fatal(err)
	}
	var s framing.Stream
	s.Init(tab, nil, 1<<20, func(f framing.Fault) bool { t.Fatalf("fault %v", f); return false })
	var codec wireCodec
	for _, from := range []int{2, 1} { // the third rank, then the bound sender
		chunk := &wireHdr{kind: kindDataMsg, rreqID: id, bytes: total, payload: bytes.Repeat([]byte{byte(0x10 + from)}, nic.BulkMin)}
		enc, err := codec.Encode(nil, chunk)
		if err != nil {
			t.Fatal(err)
		}
		wire := binary.LittleEndian.AppendUint32(nil, uint32(framing.HdrLen+len(enc)))
		wire = binary.LittleEndian.AppendUint64(wire, uint64(v.ep.ID()))
		wire = binary.LittleEndian.AppendUint64(wire, uint64(worlds[from].Transport().EndpointOf(from, 0)))
		wire = binary.LittleEndian.AppendUint32(wire, uint32(len(chunk.payload)))
		wire = append(wire, enc...)
		// In two pieces, so that the codec is asked where the body goes.
		s.Write(wire[:100])
		s.Write(wire[100:])
		s.Flush()
		for _, pkt := range l.DrainRQ(make([]fabric.Packet, 0, 2)) {
			v.handleNetMsg(pkt.Payload.(*wireHdr), pkt.Src)
		}
		snap := reg.Snapshot()
		placed, staged := snap.Counter("test.rx.placed"), snap.Counter("test.rx.staged")
		if req.IsComplete() || v.lookupRecv(id) != req || req.pins != 0 {
			t.Fatalf("chunk from rank %d: receive complete=%v, registered=%v, pins %d",
				from, req.IsComplete(), v.lookupRecv(id) == req, req.pins)
		}
		switch from {
		case 2:
			if placed != 0 || staged != 1 {
				t.Fatalf("foreign chunk: %d placed, %d staged; want it staged, not placed", placed, staged)
			}
			if !bytes.Equal(req.recvBuf, make([]byte, total)) {
				t.Fatal("the foreign chunk reached the receive buffer")
			}
		case 1:
			if placed != 1 {
				t.Fatalf("the bound sender's chunk was not placed (%d placed, %d staged)", placed, staged)
			}
			if !bytes.Equal(req.recvBuf[:nic.BulkMin], chunk.payload) || req.received != nic.BulkMin {
				t.Fatalf("the bound sender's chunk did not land (%d bytes received)", req.received)
			}
		}
	}
}
