package framing

import (
	"encoding/binary"
	"fmt"

	"gompix/internal/fabric"
)

const (
	// streamBufMin is the receive buffer a Stream allocates when its
	// transport gave it none; a frame larger than the buffer grows it
	// (doubling).
	streamBufMin = 16 << 10
	// deliverRunCap caps a contiguous same-link delivery run before it
	// is pushed under the link's RQ lock.
	deliverRunCap = 256
)

// FaultKind says which check a received frame failed.
type FaultKind uint8

const (
	// BadLength: a length prefix below HdrLen or above the stream's
	// bound. A byte stream has no resync point, so this ends it.
	BadLength FaultKind = iota
	// BadPayload: the codec refused the frame. Ends the stream too.
	BadPayload
	// UnknownEndpoint: a well-formed frame for an endpoint nobody
	// registered. The transport decides whether the stream goes on.
	UnknownEndpoint
	// ForeignSource: a well-formed frame whose source endpoint belongs
	// to another rank than the one on the other end of the stream (see
	// Stream.From). The transport decides whether the stream goes on.
	ForeignSource
)

// Fault is one frame a Stream could not deliver, reported to the
// transport's callback: what to count, and what to do to the sender, is
// the transport's policy.
type Fault struct {
	Kind FaultKind
	// Len is the length prefix as read (BadLength); a transport may have
	// reserved a value no frame can have for an in-band signal.
	Len uint32
	// EP is the frame's source (BadPayload, ForeignSource) or
	// destination (UnknownEndpoint).
	EP  fabric.EndpointID
	Err error // the codec's error (BadPayload)
}

func (f Fault) Error() string {
	switch f.Kind {
	case BadLength:
		return fmt.Sprintf("corrupt frame length %d", f.Len)
	case BadPayload:
		return fmt.Sprintf("decode frame from ep %d: %v", f.EP, f.Err)
	case ForeignSource:
		return fmt.Sprintf("frame from ep %d of another rank", f.EP)
	default:
		return fmt.Sprintf("frame for unknown endpoint %d", f.EP)
	}
}

// Stream is the receive side of one byte stream of frames: the
// transport puts the bytes it read — from a socket, out of a ring cell —
// where Target says (or hands them to Write), and every frame they
// complete is decoded and delivered to its destination link's receive
// queue, consecutive frames for one link as one run. A frame that has
// only begun to arrive and is large enough (stageable) is assembled
// where it is going (see reassembly): the following bytes land in the
// receive buffer its codec placed its body in, or in a staging buffer.
// All methods require the lock of the receive side that owns the
// stream.
type Stream struct {
	tab    *Table
	max    uint32
	reject func(Fault) (skip bool)

	buf      []byte
	pos, end int // the unparsed region of buf

	// asm, while active, is the frame the following bytes land in
	// directly (see reassembly); buf is empty meanwhile.
	asm reassembly

	run     []fabric.Packet // pending same-link delivery run
	runLink *Link

	// space and peer name the rank on the other end (From): every frame
	// must come from one of its endpoints. A zero space checks nothing.
	space Space
	peer  int
}

// Init readies the stream: frames route through tab, a length prefix
// above maxFrame is corruption, and reject hears of every frame that
// cannot be delivered — under the stream's lock; its result matters for
// UnknownEndpoint only, where true skips the frame and goes on. buf is
// the initial receive buffer, nil to have one allocated on first use.
func (s *Stream) Init(tab *Table, buf []byte, maxFrame uint32, reject func(Fault) (skip bool)) {
	s.tab, s.buf, s.max, s.reject = tab, buf, maxFrame, reject
}

// From binds the stream to the world rank on its other end, in the
// endpoint space space: from then on a frame whose source endpoint
// another rank owns is refused (ForeignSource) — a peer cannot speak
// for a third rank, whose rendezvous handles the MPI layer binds to it.
func (s *Stream) From(space Space, peer int) { s.space, s.peer = space, peer }

// Target returns where the stream's next bytes belong: the rest of the
// frame under assembly when there is one, otherwise the free end of the
// receive buffer, with room for at least min bytes. Report what was
// put there to Commit.
func (s *Stream) Target(min int) []byte {
	if s.asm.Active() {
		return s.asm.Tail()
	}
	if s.end+min > len(s.buf) {
		s.makeRoom(min)
	}
	return s.buf[s.end:]
}

// makeRoom guarantees min free bytes at the end of the buffer: compact
// the consumed prefix first, grow (doubling) only when the live region
// itself outgrows the buffer.
func (s *Stream) makeRoom(min int) {
	live := s.end - s.pos
	if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.end])
		s.pos, s.end = 0, live
		if live+min <= len(s.buf) {
			return
		}
	}
	size := max(len(s.buf), streamBufMin)
	for size < live+min {
		size *= 2
	}
	nbuf := make([]byte, size)
	copy(nbuf, s.buf[:s.end])
	s.buf = nbuf
}

// Commit accounts for n bytes placed in Target and queues every frame
// they complete, returning how many. The last run stays pending until
// Flush, so a caller that feeds the stream piecewise takes each
// link's RQ lock once per pass.
func (s *Stream) Commit(n int) (frames int) {
	frames, _ = s.commit(n)
	return frames
}

// Write feeds p to the stream — Target, copy, Commit, until p is
// consumed or the stream ended on a fault — and returns the frames
// queued.
func (s *Stream) Write(p []byte) (frames int) {
	for ok := true; ok && len(p) > 0; {
		c := copy(s.Target(len(p)), p)
		p = p[c:]
		var k int
		k, ok = s.commit(c)
		frames += k
	}
	return frames
}

// commit is Commit; ok turns false when a fault ended the stream.
func (s *Stream) commit(n int) (frames int, ok bool) {
	if !s.asm.Active() {
		s.end += n
		return s.parse()
	}
	if !s.asm.Filled(n) {
		return 0, true
	}
	return s.deliver(s.asm.Finish(s.tab.split))
}

// parse consumes complete frames from the buffered region. Frames
// parsed before a fault still deliver.
func (s *Stream) parse() (frames int, ok bool) {
	for ok = true; ok; {
		avail := s.end - s.pos
		if avail < 4 {
			break
		}
		flen := binary.LittleEndian.Uint32(s.buf[s.pos:])
		if flen < HdrLen || flen > s.max {
			return frames, s.fail(Fault{Kind: BadLength, Len: flen})
		}
		total := 4 + int(flen)
		if avail < total {
			// Partial frame. A large one is assembled where it is going
			// from here on; otherwise Target grows the receive buffer for
			// it.
			if s.tab.split != nil && stageable(int(flen)) {
				s.assemble(int(flen))
			}
			break
		}
		dst, src, bytes, data := parseHdr(s.buf[s.pos+4 : s.pos+total])
		s.pos += total
		payload, err := s.tab.codec.Decode(data)
		var k int
		k, ok = s.deliver(dst, src, bytes, payload, err)
		frames += k
	}
	if s.pos == s.end {
		s.pos, s.end = 0, 0
	}
	return frames, ok
}

// assemble moves the partial frame at pos, flen bytes after its length
// prefix, out of the receive buffer into reassembly: its body into the
// home the codec names for it, or the whole frame into a staging
// buffer. The codec is asked once the frame's header has arrived, and
// again with more of the frame for as long as it says it needs more to
// answer; meanwhile the frame stays buffered.
func (s *Stream) assemble(flen int) {
	frame := s.buf[s.pos+4 : s.end]
	if len(frame) < HdrLen {
		return
	}
	dst, src, bytes, head := parseHdr(frame)
	body, p, need := s.tab.split.Place(dst, src, flen-HdrLen, head)
	switch {
	case p != nil:
		s.asm.Place(p, body, dst, src, bytes, head[flen-HdrLen-len(body):])
	case need > len(head):
		return
	default:
		s.asm.Stage(flen, frame)
	}
	s.tab.countAssembly(p != nil)
	s.pos = s.end
}

// deliver adds one decoded frame to the delivery run of its
// destination link.
func (s *Stream) deliver(dst, src fabric.EndpointID, bytes int, payload any, err error) (frames int, ok bool) {
	if err != nil {
		return 0, s.fail(Fault{Kind: BadPayload, EP: src, Err: err})
	}
	if s.space != 0 && s.space.RankOfEndpoint(src) != s.peer {
		if s.reject(Fault{Kind: ForeignSource, EP: src}) {
			return 0, true
		}
		s.reset()
		return 0, false
	}
	l := s.tab.Lookup(dst)
	if l == nil {
		// Endpoints are advertised only after their link registers, so
		// this is corruption or a hostile sender.
		if s.reject(Fault{Kind: UnknownEndpoint, EP: dst}) {
			return 0, true
		}
		s.reset()
		return 0, false
	}
	if s.runLink != l || len(s.run) >= deliverRunCap {
		s.Flush()
		s.runLink = l
	}
	s.run = append(s.run, fabric.Packet{Src: src, Dst: dst, Payload: payload, Bytes: bytes})
	return 1, true
}

// fail ends the stream on a fault it cannot read past: what was
// delivered so far is flushed, what is buffered is discarded, and then
// the transport hears of it. It returns false, for commit's ok.
func (s *Stream) fail(f Fault) bool {
	s.reset()
	s.reject(f)
	return false
}

func (s *Stream) reset() {
	s.Flush()
	s.pos, s.end = 0, 0
	s.asm.Drop()
}

// Flush pushes the pending delivery run to its link's receive queue:
// one lock acquisition and one work bump per run, not per frame.
func (s *Stream) Flush() {
	if len(s.run) > 0 {
		s.runLink.rq.PushAll(s.run)
		for i := range s.run {
			s.run[i] = fabric.Packet{}
		}
		s.run = s.run[:0]
	}
	s.runLink = nil
}

// Idle reports whether the stream stands at a frame boundary: nothing
// buffered, nothing under assembly.
func (s *Stream) Idle() bool { return s.pos == s.end && !s.asm.Active() }

// Release retires the stream — a frame under assembly is dropped: a
// placed body's home let go of, a staging buffer back to the pool — and
// returns its receive buffer to the caller.
func (s *Stream) Release() []byte {
	buf := s.buf
	s.buf, s.pos, s.end = nil, 0, 0
	s.asm.Drop()
	return buf
}
