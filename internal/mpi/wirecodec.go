package mpi

import (
	"encoding/binary"
	"fmt"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// wireCodec serializes wireHdr protocol messages for byte-oriented
// transports (nic.Codec). A rendezvous travels as sreqID/rreqID handle
// ids, which the netmod resolves through the VCI's handle tables. The
// codec is bound to its world, whose receive handles tell it where a
// rendezvous chunk's bytes belong (Place); w is nil for a codec that
// only translates.
type wireCodec struct{ w *World }

// wireHdrLen is the fixed encoded header size, payload length prefix
// included: kind src ctx tag bytes srcEP sreqID rreqID flow off last addr
// plen.
const wireHdrLen = 1 + 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8 + 4 + 1 + 8 + 4

func (c wireCodec) Encode(buf []byte, payload any) ([]byte, error) {
	head, body, err := c.EncodeSplit(buf, payload)
	if err != nil {
		return nil, err
	}
	return append(head, body...), nil
}

// EncodeSplit appends the fixed header and returns the payload bytes
// where the header has them (nic.SplitCodec): for a send from the
// user's buffer that is the user's buffer.
func (wireCodec) EncodeSplit(buf []byte, payload any) (head, body []byte, err error) {
	h, ok := payload.(*wireHdr)
	if !ok {
		return nil, nil, fmt.Errorf("mpi: wireCodec cannot encode %T", payload)
	}
	var e [wireHdrLen]byte
	e[0] = byte(h.kind)
	binary.LittleEndian.PutUint32(e[1:], uint32(int32(h.src)))
	binary.LittleEndian.PutUint32(e[5:], h.ctx)
	binary.LittleEndian.PutUint64(e[9:], uint64(int64(h.tag)))
	binary.LittleEndian.PutUint32(e[17:], uint32(int32(h.bytes)))
	binary.LittleEndian.PutUint64(e[21:], uint64(h.srcEP))
	binary.LittleEndian.PutUint64(e[29:], h.sreqID)
	binary.LittleEndian.PutUint64(e[37:], h.rreqID)
	binary.LittleEndian.PutUint64(e[45:], h.flow)
	binary.LittleEndian.PutUint32(e[53:], uint32(int32(h.off)))
	if h.last {
		e[57] = 1
	}
	binary.LittleEndian.PutUint64(e[58:], h.addr)
	binary.LittleEndian.PutUint32(e[66:], uint32(len(h.payload)))
	return append(buf, e[:]...), h.payload, nil
}

// readHdr parses the fixed header at the start of data into a pooled
// header and returns the payload length it announces. Sizes and offsets
// are signed on the wire only because the header struct's are; a
// negative one is a corrupt frame and would index a receive buffer if
// it were let through. A kind nobody defined is one too: handleNetMsg
// has no arm for it.
func readHdr(data []byte) (*wireHdr, int, error) {
	if len(data) < wireHdrLen {
		return nil, 0, fmt.Errorf("mpi: wireCodec short frame (%d bytes)", len(data))
	}
	if msgKind(data[0]) >= numMsgKinds {
		return nil, 0, fmt.Errorf("mpi: wireCodec unknown message kind %d", data[0])
	}
	bytes := int(int32(binary.LittleEndian.Uint32(data[17:])))
	off := int(int32(binary.LittleEndian.Uint32(data[53:])))
	if bytes < 0 || off < 0 {
		return nil, 0, fmt.Errorf("mpi: wireCodec negative size or offset (bytes=%d off=%d)", bytes, off)
	}
	h := newHdr()
	h.kind = msgKind(data[0])
	h.src = int(int32(binary.LittleEndian.Uint32(data[1:])))
	h.ctx = binary.LittleEndian.Uint32(data[5:])
	h.tag = int(int64(binary.LittleEndian.Uint64(data[9:])))
	h.bytes = bytes
	h.srcEP = fabric.EndpointID(binary.LittleEndian.Uint64(data[21:]))
	h.sreqID = binary.LittleEndian.Uint64(data[29:])
	h.rreqID = binary.LittleEndian.Uint64(data[37:])
	h.flow = binary.LittleEndian.Uint64(data[45:])
	h.off = off
	h.last = data[57] != 0
	h.addr = binary.LittleEndian.Uint64(data[58:])
	return h, int(binary.LittleEndian.Uint32(data[66:])), nil
}

// decodeHdr parses a whole frame: the fixed header, and the payload's
// bytes inside data, which must hold them.
func decodeHdr(data []byte) (*wireHdr, []byte, error) {
	h, plen, err := readHdr(data)
	if err != nil {
		return nil, nil, err
	}
	if plen > len(data)-wireHdrLen {
		recycleHdr(h)
		return nil, nil, fmt.Errorf("mpi: wireCodec payload overruns frame (%d > %d)", plen, len(data)-wireHdrLen)
	}
	return h, data[wireHdrLen : wireHdrLen+plen], nil
}

// Decode copies the payload out of the frame (the frame buffer is only
// valid during the call; the payload lands in matching queues and user
// buffers asynchronously) into a staging buffer that the netmod returns
// once the bytes are in the user's buffer.
func (wireCodec) Decode(data []byte) (any, error) {
	h, payload, err := decodeHdr(data)
	if err != nil {
		return nil, err
	}
	if len(payload) > 0 {
		h.stage = nic.GetStaging(len(payload))
		h.payload = h.stage
		copy(h.payload, payload)
	}
	return h, nil
}

// DecodeOwned takes over a frame the transport assembled in a staging
// buffer: the payload stays where it is (nic.SplitCodec).
func (wireCodec) DecodeOwned(frame, data []byte) (any, error) {
	h, payload, err := decodeHdr(data)
	if err != nil {
		return nil, err
	}
	h.stage = frame
	if len(payload) > 0 {
		h.payload = payload
	}
	return h, nil
}

// Place names the home of a rendezvous chunk's bytes (nic.SplitCodec):
// a DATA frame from src for a live receive handle of the VCI at dst
// bound to src's rank, whose body
// fills the rest of the frame and fits the receive — inside the message
// its RTS announced, and inside the buffer without truncation (see
// VCI.placeChunk). Anything else — other kinds, unknown or retired
// handles, chunks a sender lies about — is assembled by the transport
// and decoded as usual, which is also where a hostile chunk meets
// handleNetMsg's check. The returned placement is the decoded header,
// payload already in place. Only a byte transport's stream asks, and
// such a world hosts one rank: the one whose VCIs dst names.
func (c wireCodec) Place(dst, src fabric.EndpointID, size int, head []byte) ([]byte, nic.Placement, int) {
	if c.w == nil || len(head) > 0 && msgKind(head[0]) != kindDataMsg {
		return nil, nil, 0
	}
	if len(head) < wireHdrLen {
		return nil, nil, wireHdrLen
	}
	v := c.w.procs[c.w.rank].vciOfEP(dst)
	if v == nil {
		return nil, nil, 0
	}
	h, plen, err := readHdr(head)
	if err != nil {
		return nil, nil, 0
	}
	if plen == size-wireHdrLen {
		if req, body := v.placeChunk(h.rreqID, h.off, plen, v.rankOfEP(src)); req != nil {
			h.payload, h.placed = body, req
			return body, h, 0
		}
	}
	recycleHdr(h)
	return nil, nil, 0
}

// Finish lets go of the receive a placed chunk was written into and
// returns the header for delivery (nic.Placement).
func (h *wireHdr) Finish() any {
	h.placed.unpin()
	return h
}

// Drop lets go of the receive of a placed chunk that will never be
// complete; the header is dead (nic.Placement).
func (h *wireHdr) Drop() {
	h.placed.unpin()
	recycleHdr(h)
}
