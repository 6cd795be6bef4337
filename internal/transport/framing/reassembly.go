package framing

import (
	"encoding/binary"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// reassembly collects one frame that is larger than what the receive
// buffer holds of it straight into a staging buffer, so its bytes cross
// the receiver once — ring cell (or socket) to staging — and the codec
// takes the buffer over (nic.SplitCodec.DecodeOwned) instead of copying
// the payload out again. Smaller frames, and every frame of a codec
// without DecodeOwned, keep parsing out of the receive buffer. The zero
// value is idle; all methods require the lock of the receive side that
// owns it.
type reassembly struct {
	buf []byte // the frame after its length prefix; nil when idle
	got int
}

// Active reports whether a frame is mid-assembly.
func (a *reassembly) Active() bool { return a.buf != nil }

// stageable reports whether a partly arrived frame of flen bytes is
// assembled in a staging buffer: large enough to be worth it, and no
// larger than the pool's classes — a length prefix alone must not be
// able to demand more memory than that.
func stageable(flen int) bool { return flen >= nic.BulkMin && flen <= nic.MaxStaging }

// Begin starts assembling a frame of flen bytes (the value of its
// length prefix) from the bytes of it that are already buffered.
func (a *reassembly) Begin(flen int, have []byte) {
	a.buf = nic.GetStaging(flen)
	a.got = copy(a.buf, have)
}

// Tail returns the part of the frame still missing; a reader may fill
// it directly and report the count to Filled.
func (a *reassembly) Tail() []byte { return a.buf[a.got:] }

// Filled records n bytes written into Tail and reports whether the
// frame is complete.
func (a *reassembly) Filled(n int) (done bool) {
	a.got += n
	return a.got == len(a.buf)
}

// Finish hands the completed frame to the codec, which takes the
// buffer over, and goes idle; it returns the frame's header fields and
// the decoded payload. A frame the codec refuses goes back to the pool.
func (a *reassembly) Finish(c nic.SplitCodec) (dst, src fabric.EndpointID, bytes int, payload any, err error) {
	frame := a.take()
	dst, src, bytes, data := parseHdr(frame)
	if payload, err = c.DecodeOwned(frame, data); err != nil {
		nic.PutStaging(frame)
	}
	return dst, src, bytes, payload, err
}

func (a *reassembly) take() []byte {
	b := a.buf
	a.buf, a.got = nil, 0
	return b
}

// Drop abandons a frame mid-assembly (the stream failed or closed).
func (a *reassembly) Drop() {
	if a.buf != nil {
		nic.PutStaging(a.take())
	}
}

// parseHdr splits a frame (after its length prefix) into its header
// fields and the codec payload.
func parseHdr(frame []byte) (dst, src fabric.EndpointID, bytes int, payload []byte) {
	dst = fabric.EndpointID(binary.LittleEndian.Uint64(frame[0:]))
	src = fabric.EndpointID(binary.LittleEndian.Uint64(frame[8:]))
	bytes = int(int32(binary.LittleEndian.Uint32(frame[16:])))
	return dst, src, bytes, frame[HdrLen:]
}
