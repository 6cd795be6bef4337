// Package framing is everything the byte transports do alike, once:
// the wire frame (u32 length prefix, destination and source endpoint,
// modeled size, codec payload); the link core MPI progress drains and
// the endpoint→link table (link.go); the per-peer watermark out-queue
// that coalesces frames between flushes, with the peer's verdict beside
// it (this file, link.go); and the receive stream that turns whatever
// bytes arrived back into frames, a large one assembled straight into a
// staging buffer (stream.go). What is left to a transport is the
// carrier: the tcp transport drains the queue into a socket as one
// vectored write and feeds the stream from socket reads; the shm
// transport pumps the queue into ring cells and feeds the stream from
// them (DESIGN.md §9 has the table of who supplies what).
package framing

import (
	"encoding/binary"
	"io"
	"net"
	"sync"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// HdrLen is the frame header after the u32 length prefix: dstEP u64,
// srcEP u64, bytes u32.
const HdrLen = 8 + 8 + 4

// Frames coalesce into pooled segments. Frames are never split across
// owned segments, so apart from a partially written head every flush
// unit is frame-aligned; a segment is sealed once it crosses segSoft
// and a fresh one opened, which keeps individual units bounded without
// copying.
const (
	// segSoft is the coalescing target: an open segment accepts frames
	// until it crosses this size, then seals.
	segSoft = 32 << 10
	// segSlack is extra capacity beyond segSoft so the frame that
	// seals a segment usually fits without reallocating.
	segSlack = 4 << 10
	// maxPooledSeg drops segments that ballooned for a jumbo frame
	// instead of parking them in the pool forever.
	maxPooledSeg = 256 << 10
	// maxFlushSegs bounds the iovec count handed to one writev.
	maxFlushSegs = 64
)

// seg is one run of the output stream. An owned segment holds encoded
// bytes of consecutive frames in a pooled buffer; a borrowed segment is
// the body of one signaled frame, still in the poster's memory — the
// queue reads it and never writes it, and forgets it the moment the
// watermark passes (or the queue is emptied), which is always before
// the frame settles. start is the segment's offset in the peer's
// cumulative output stream, which is how flushes locate the unwritten
// tail after a partial write.
type seg struct {
	buf      []byte
	start    int64
	borrowed bool
}

var (
	segPool    = sync.Pool{New: func() any { return &seg{buf: make([]byte, 0, segSoft+segSlack)} }}
	borrowPool = sync.Pool{New: func() any { return &seg{borrowed: true} }}
)

// Frame attributes a range of the output stream to the link that posted
// it, so a flush can settle the link's pending counter — and, for
// signaled sends, deliver the CQE carrying Token — once the stream's
// written watermark passes the frame's End offset.
type Frame struct {
	Link     *Link
	Token    any
	Signaled bool
	End      int64 // cumulative stream offset just past this frame
}

// Queue is one peer's coalescing output queue. All methods require the
// owning peer's mutex. Byte positions are cumulative stream offsets
// (appended = total bytes ever queued, written = total bytes the wire
// accepted: the kernel for tcp, the shared ring for shm), which makes
// partial-write resume a subtraction instead of a buffer shuffle.
type Queue struct {
	segs   []*seg
	frames []Frame

	appended int64
	written  int64

	iov net.Buffers // reusable writev scratch (buildIOV's backing)
	// iovW is the consumable header handed to net.Buffers.WriteTo.
	// WriteTo's pointer receiver escapes into the kernel's
	// buffersWriter interface, so a stack local would be heap-allocated
	// on every flush; consuming a copy of the iov header through this
	// field keeps the hot path allocation-free. WriteTo nils consumed
	// entries in the shared backing array, which is fine — buildIOV
	// rewrites it from the segment list each iteration.
	iovW net.Buffers
}

// Pending returns the byte count queued but not yet written.
func (q *Queue) Pending() int64 { return q.appended - q.written }

// Written returns the written watermark.
func (q *Queue) Written() int64 { return q.written }

// tip returns the open segment, opening a fresh one when the queue is
// empty or the last segment has sealed (a borrowed segment is born
// sealed).
func (q *Queue) tip() *seg {
	if n := len(q.segs); n > 0 {
		if s := q.segs[n-1]; !s.borrowed && len(s.buf) < segSoft {
			return s
		}
	}
	s := segPool.Get().(*seg)
	s.buf = s.buf[:0]
	s.start = q.appended
	q.segs = append(q.segs, s)
	return s
}

// Append encodes one frame from l — u32 length prefix, dstEP, srcEP,
// bytes, codec payload — onto the open segment and records its
// attribution. A codec error unwinds the partial append. When the
// table's codec has a SplitCodec side, a signaled frame whose body is
// at least nic.BulkMin bytes keeps the body where the poster has it, as
// a borrowed segment behind the encoded head.
func (q *Queue) Append(l *Link, dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) error {
	codec, split := l.tab.codec, l.tab.split
	if codec == nil {
		panic("framing: no codec installed (Transport.SetCodec not called)")
	}
	s := q.tip()
	lenAt := len(s.buf)
	s.buf = append(s.buf, 0, 0, 0, 0)
	var hdr [HdrLen]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(dst))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(l.id))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(bytes))
	s.buf = append(s.buf, hdr[:]...)
	var buf, body []byte
	var err error
	if split != nil && signaled {
		if buf, body, err = split.EncodeSplit(s.buf, payload); err == nil && len(body) < nic.BulkMin {
			buf, body = append(buf, body...), nil
		}
	} else {
		buf, err = codec.Encode(s.buf, payload)
	}
	if err != nil {
		s.buf = s.buf[:lenAt]
		return err
	}
	s.buf = buf
	binary.LittleEndian.PutUint32(s.buf[lenAt:], uint32(len(s.buf)-lenAt-4+len(body)))
	q.appended = s.start + int64(len(s.buf))
	if body != nil {
		b := borrowPool.Get().(*seg)
		b.buf, b.start = body, q.appended
		q.segs = append(q.segs, b)
		q.appended += int64(len(body))
	}
	q.frames = append(q.frames, Frame{Link: l, Token: token, Signaled: signaled, End: q.appended})
	return nil
}

// unwritten returns the part of s past the written watermark plus n
// further bytes (n > 0 while a caller gathers several segments into one
// unit); empty for a fully written head or an empty open tip.
func (q *Queue) unwritten(s *seg, n int) []byte {
	off := q.written + int64(n) - s.start
	if off < 0 {
		off = 0
	}
	if int(off) >= len(s.buf) {
		return nil
	}
	return s.buf[off:]
}

// buildIOV assembles the unwritten byte ranges into the reusable
// net.Buffers: the head segment sliced past the written watermark,
// then whole segments up to the iovec budget.
func (q *Queue) buildIOV() net.Buffers {
	q.iov = q.iov[:0]
	for _, s := range q.segs {
		if len(q.iov) >= maxFlushSegs {
			break
		}
		if b := q.unwritten(s, 0); len(b) > 0 {
			q.iov = append(q.iov, b)
		}
	}
	return q.iov
}

// advance moves the written watermark and recycles fully written
// segments. Writes are in order, so only a leading run of segments can
// complete.
func (q *Queue) advance(nn int64) {
	q.written += nn
	n := 0
	for _, s := range q.segs {
		if s.start+int64(len(s.buf)) > q.written {
			break
		}
		recycle(s)
		n++
	}
	if n > 0 {
		rest := copy(q.segs, q.segs[n:])
		for i := rest; i < len(q.segs); i++ {
			q.segs[i] = nil
		}
		q.segs = q.segs[:rest]
	}
}

func recycle(s *seg) {
	if s.borrowed {
		s.buf = nil // the poster's memory: forget it
		borrowPool.Put(s)
		return
	}
	if cap(s.buf) > maxPooledSeg {
		return // jumbo-frame segment: let the GC take it
	}
	s.buf = s.buf[:0]
	segPool.Put(s)
}

// FlushTo pushes every pending byte to w, resuming across partial
// writes: after a short write (a shaped connection, or a generic
// writer returning io.ErrShortWrite) the next iovec is rebuilt from
// the written watermark, so frame boundaries survive arbitrary write
// fragmentation. nsegs reports the iovec entries of the largest batch
// for metrics.
func (q *Queue) FlushTo(w io.Writer) (made bool, nsegs int, err error) {
	made, nsegs, err = q.writeLoop(w)
	// Forget the scratch vector, stale tail included: entries may be
	// borrowed.
	clear(q.iov[:cap(q.iov)])
	q.iovW = nil
	return made, nsegs, err
}

func (q *Queue) writeLoop(w io.Writer) (made bool, nsegs int, err error) {
	for q.Pending() > 0 {
		iov := q.buildIOV()
		if len(iov) == 0 {
			break
		}
		if len(iov) > nsegs {
			nsegs = len(iov)
		}
		var nn int64
		var werr error
		if len(iov) == 1 {
			// single-segment fast path: skip the net.Buffers machinery
			var nw int
			nw, werr = w.Write(iov[0])
			nn = int64(nw)
		} else {
			q.iovW = iov
			nn, werr = q.iovW.WriteTo(w)
		}
		if nn > 0 {
			made = true
			q.advance(nn)
		}
		if werr != nil {
			if werr == io.ErrShortWrite {
				continue // partial write: resume from the watermark
			}
			return made, nsegs, werr
		}
	}
	return made, nsegs, nil
}

// CellRing is the producer side of a ring of fixed-capacity cells (the
// shm transport's mmap ring): Claim returns the next free cell's
// payload area, or nil when the ring is full, and Publish(n) hands the
// first n bytes of the claimed cell to the consumer.
type CellRing interface {
	Claim() []byte
	Publish(n int)
}

// PumpTo copies pending bytes into free cells of r, one chunk per cell,
// until the queue drains or the ring fills. Chunks are cut purely by
// cell capacity — the byte stream's frame boundaries are reconstructed
// by the receiver — so a jumbo frame streams across as many cells as
// the consumer frees, and a borrowed body goes from the poster's memory
// into the cells with no stop in between.
func (q *Queue) PumpTo(r CellRing) (made bool) {
	for q.Pending() > 0 {
		cell := r.Claim()
		if cell == nil {
			break // ring full: resume on the next flush
		}
		n := 0
		for _, s := range q.segs {
			n += copy(cell[n:], q.unwritten(s, n))
			if n == len(cell) {
				break
			}
		}
		if n == 0 {
			break
		}
		r.Publish(n)
		q.advance(int64(n))
		made = true
	}
	return made
}

// PopSettled moves the frames fully behind the written watermark into
// scratch (reused across flushes; caller still holds the peer lock).
func (q *Queue) PopSettled(scratch []Frame) []Frame {
	scratch = scratch[:0]
	n := 0
	for _, f := range q.frames {
		if f.End > q.written {
			break
		}
		n++
	}
	if n == 0 {
		return scratch
	}
	scratch = append(scratch, q.frames[:n]...)
	rest := copy(q.frames, q.frames[n:])
	for i := rest; i < len(q.frames); i++ {
		q.frames[i] = Frame{}
	}
	q.frames = q.frames[:rest]
	return scratch
}

// TakeAll empties the queue — written or not — into scratch, for the
// loss paths (write error, failure verdict, close): the caller fails
// every frame and the reliability layer re-drives what mattered. Every
// borrowed body is forgotten here, before any of those failures is
// reported.
func (q *Queue) TakeAll(scratch []Frame) []Frame {
	scratch = append(scratch[:0], q.frames...)
	for i := range q.frames {
		q.frames[i] = Frame{}
	}
	q.frames = q.frames[:0]
	for i, s := range q.segs {
		recycle(s)
		q.segs[i] = nil
	}
	q.segs = q.segs[:0]
	q.written = q.appended
	return scratch
}
