package framing

import (
	"encoding/binary"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// reassembly collects one frame that is larger than what the receive
// buffer holds of it straight into where it is going, so its bytes
// cross the receiver once. Where is the codec's answer
// (nic.SplitCodec.Place): a body the codec can name a home for — a
// rendezvous chunk for a posted receive — is written into that home,
// its header held here, parsed; any other frame goes whole into a
// pooled staging buffer that the codec takes over
// (nic.SplitCodec.DecodeOwned) instead of copying the payload out
// again. Smaller frames, and every frame of a codec without the split
// side, keep parsing out of the receive buffer. The zero value is idle;
// all methods require the lock of the receive side that owns it.
type reassembly struct {
	// buf is what the following bytes fill: the frame after its length
	// prefix when staged, its body when placed; nil when idle.
	buf []byte
	got int

	// placed holds a placed body's home until Finish or Drop; dst, src
	// and bytes are that frame's header.
	placed   nic.Placement
	dst, src fabric.EndpointID
	bytes    int
}

// Active reports whether a frame is mid-assembly.
func (a *reassembly) Active() bool { return a.buf != nil }

// stageable reports whether a partly arrived frame of flen bytes is
// assembled rather than buffered: large enough to be worth it, and no
// larger than the staging pool's classes — a length prefix alone must
// not be able to demand more memory than that.
func stageable(flen int) bool { return flen >= nic.BulkMin && flen <= nic.MaxStaging }

// Stage starts assembling a frame of flen bytes (the value of its
// length prefix) in a staging buffer, from the bytes of it that are
// already buffered.
func (a *reassembly) Stage(flen int, have []byte) {
	a.buf = nic.GetStaging(flen)
	a.got = copy(a.buf, have)
}

// Place starts assembling the frame whose header is dst, src, bytes and
// whose body the codec placed (p), from the bytes of the body that are
// already buffered.
func (a *reassembly) Place(p nic.Placement, body []byte, dst, src fabric.EndpointID, bytes int, have []byte) {
	a.placed, a.dst, a.src, a.bytes = p, dst, src, bytes
	a.buf = body
	a.got = copy(body, have)
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

// Finish goes idle and returns the completed frame's header fields and
// payload: a placed frame's from its placement, which lets go of the
// body's home; a staged frame's from the codec, which takes the buffer
// over — or, refusing the frame, leaves it to go back to the pool.
func (a *reassembly) Finish(c nic.SplitCodec) (dst, src fabric.EndpointID, bytes int, payload any, err error) {
	frame := a.buf
	a.buf, a.got = nil, 0
	if p := a.placed; p != nil {
		a.placed = nil
		return a.dst, a.src, a.bytes, p.Finish(), nil
	}
	dst, src, bytes, data := parseHdr(frame)
	if payload, err = c.DecodeOwned(frame, data); err != nil {
		nic.PutStaging(frame)
	}
	return dst, src, bytes, payload, err
}

// Drop abandons a frame mid-assembly (the stream failed or closed): a
// placed body's home is let go of, a staging buffer goes back to the
// pool.
func (a *reassembly) Drop() {
	if a.buf == nil {
		return
	}
	if p := a.placed; p != nil {
		a.placed = nil
		p.Drop()
	} else {
		nic.PutStaging(a.buf)
	}
	a.buf, a.got = nil, 0
}

// parseHdr splits a frame (after its length prefix) into its header
// fields and the codec payload.
func parseHdr(frame []byte) (dst, src fabric.EndpointID, bytes int, payload []byte) {
	dst = fabric.EndpointID(binary.LittleEndian.Uint64(frame[0:]))
	src = fabric.EndpointID(binary.LittleEndian.Uint64(frame[8:]))
	bytes = int(int32(binary.LittleEndian.Uint32(frame[16:])))
	return dst, src, bytes, frame[HdrLen:]
}
