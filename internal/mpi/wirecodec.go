package mpi

import (
	"encoding/binary"
	"fmt"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// wireCodec serializes wireHdr protocol messages for byte-oriented
// transports (nic.Codec). The in-process pointer fields (sreq/rreq)
// never cross the wire; their sreqID/rreqID handle ids do — a decoded
// header always arrives with nil pointers and the netmod resolves the
// handles through the VCI's registry tables.
type wireCodec struct{}

// wireHdrLen is the fixed encoded header size, payload length prefix
// included: kind src ctx tag bytes srcEP sreqID rreqID flow off last plen.
const wireHdrLen = 1 + 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8 + 4 + 1 + 4

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
	binary.LittleEndian.PutUint32(e[58:], uint32(len(h.payload)))
	return append(buf, e[:]...), h.payload, nil
}

// decodeHdr parses the fixed header and returns the payload's bytes
// inside data. Sizes and offsets are signed on the wire only because
// the header struct's are; a negative one is a corrupt frame and would
// index a receive buffer if it were let through. A kind nobody defined
// is one too: handleNetMsg has no arm for it.
func decodeHdr(data []byte) (*wireHdr, []byte, error) {
	if len(data) < wireHdrLen {
		return nil, nil, fmt.Errorf("mpi: wireCodec short frame (%d bytes)", len(data))
	}
	if msgKind(data[0]) >= numMsgKinds {
		return nil, nil, fmt.Errorf("mpi: wireCodec unknown message kind %d", data[0])
	}
	bytes := int(int32(binary.LittleEndian.Uint32(data[17:])))
	off := int(int32(binary.LittleEndian.Uint32(data[53:])))
	plen := int(binary.LittleEndian.Uint32(data[58:]))
	if bytes < 0 || off < 0 {
		return nil, nil, fmt.Errorf("mpi: wireCodec negative size or offset (bytes=%d off=%d)", bytes, off)
	}
	if plen > len(data)-wireHdrLen {
		return nil, nil, fmt.Errorf("mpi: wireCodec payload overruns frame (%d > %d)", plen, len(data)-wireHdrLen)
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
