package framing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// bodyCodec frames a []byte payload as a u32 length and the bytes; as a
// SplitCodec the bytes are the body.
type bodyCodec struct{}

func (c bodyCodec) Encode(buf []byte, payload any) ([]byte, error) {
	head, body, err := c.EncodeSplit(buf, payload)
	return append(head, body...), err
}

func (bodyCodec) EncodeSplit(buf []byte, payload any) (head, body []byte, err error) {
	b, ok := payload.([]byte)
	if !ok {
		return nil, nil, fmt.Errorf("bodyCodec: %T", payload)
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(len(b))), b, nil
}

func (bodyCodec) Decode(data []byte) (any, error) { return append([]byte(nil), data[4:]...), nil }

func (bodyCodec) DecodeOwned(frame, data []byte) (any, error) { return data[4:], nil }

func (bodyCodec) Place(fabric.EndpointID, fabric.EndpointID, int, []byte) ([]byte, nic.Placement, int) {
	return nil, nil, 0
}

// testLink registers a link at endpoint id on a table of its own whose
// codec is c.
func testLink(t testing.TB, c nic.Codec, id fabric.EndpointID) *Link {
	t.Helper()
	tab := NewTable()
	tab.SetCodec(c)
	l := new(Link)
	if err := tab.Register(l, id); err != nil {
		t.Fatal(err)
	}
	return l
}

// chokedWriter takes a random number of bytes per call and reports the
// rest as a short write, like a socket with a nearly full send buffer.
type chokedWriter struct {
	dst bytes.Buffer
	rng *rand.Rand
	max int
}

func (w *chokedWriter) Write(p []byte) (int, error) {
	n := 1 + w.rng.Intn(w.max)
	if n >= len(p) {
		w.dst.Write(p)
		return len(p), nil
	}
	w.dst.Write(p[:n])
	return n, io.ErrShortWrite
}

// brokenWriter takes left more bytes and then fails for good.
type brokenWriter struct{ left int }

func (w *brokenWriter) Write(p []byte) (int, error) {
	if len(p) <= w.left {
		w.left -= len(p)
		return len(p), nil
	}
	n := w.left
	w.left = 0
	return n, errors.New("connection reset")
}

// stallRing is a CellRing whose cell size changes from claim to claim
// and which reports full at random; the bytes it is handed concatenate
// into dst.
type stallRing struct {
	dst  bytes.Buffer
	rng  *rand.Rand
	cell []byte
}

func (r *stallRing) Claim() []byte {
	if r.rng.Intn(4) == 0 {
		return nil
	}
	r.cell = make([]byte, 1+r.rng.Intn(5000))
	return r.cell
}

func (r *stallRing) Publish(n int) { r.dst.Write(r.cell[:n]) }

// mixedPost is one posted frame of the seeded mix.
type mixedPost struct {
	payload  []byte
	signaled bool
}

// mixedPosts draws frames on both sides of every choice Append makes:
// signaled or not, body below or above nic.BulkMin, small enough to
// coalesce or large enough to seal a segment.
func mixedPosts(rng *rand.Rand, count int) []mixedPost {
	posts := make([]mixedPost, count)
	for i := range posts {
		var size int
		switch rng.Intn(4) {
		case 0:
			size = rng.Intn(64)
		case 1:
			size = nic.BulkMin - 2 + rng.Intn(4)
		case 2:
			size = nic.BulkMin + rng.Intn(60<<10)
		default:
			size = 30<<10 + rng.Intn(8<<10)
		}
		posts[i] = mixedPost{payload: make([]byte, size), signaled: rng.Intn(3) > 0}
		rng.Read(posts[i].payload)
	}
	return posts
}

// reference is the byte stream the posts must produce, built the plain
// way: every frame encoded whole, one after the other.
func reference(posts []mixedPost, src fabric.EndpointID) []byte {
	var out []byte
	for i, p := range posts {
		out = binary.LittleEndian.AppendUint32(out, uint32(HdrLen+4+len(p.payload)))
		out = binary.LittleEndian.AppendUint64(out, uint64(1000+i))
		out = binary.LittleEndian.AppendUint64(out, uint64(src))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.payload)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p.payload)))
		out = append(out, p.payload...)
	}
	return out
}

// drainMixed interleaves posting with draining (through drain, which
// returns after an arbitrary amount of progress) and checks settlement
// order and the watermark rule; it returns how many bodies were
// borrowed.
func drainMixed(t *testing.T, rng *rand.Rand, posts []mixedPost, drain func(q *Queue) error) (borrowed int) {
	t.Helper()
	var q Queue
	l := testLink(t, bodyCodec{}, 42)
	next := 0
	settle := func() {
		for _, f := range q.PopSettled(nil) {
			if f.Token != next || f.Link != l || f.Signaled != posts[next].signaled {
				t.Fatalf("settled %+v, want frame %d", f, next)
			}
			if f.End > q.Written() {
				t.Fatalf("frame %d settled at end=%d past written=%d", next, f.End, q.Written())
			}
			next++
		}
	}
	for i, p := range posts {
		if err := q.Append(l, fabric.EndpointID(1000+i), p.payload, len(p.payload), i, p.signaled); err != nil {
			t.Fatal(err)
		}
		if last := q.segs[len(q.segs)-1]; last.borrowed {
			if !p.signaled || len(p.payload) < nic.BulkMin || &last.buf[0] != &p.payload[0] {
				t.Fatalf("frame %d (signaled=%v, %d bytes) wrongly borrowed", i, p.signaled, len(p.payload))
			}
			borrowed++
		} else if p.signaled && len(p.payload) >= nic.BulkMin {
			t.Fatalf("frame %d (signaled, %d bytes) was copied", i, len(p.payload))
		}
		if rng.Intn(3) == 0 {
			if err := drain(&q); err != nil {
				t.Fatal(err)
			}
			settle()
		}
	}
	for q.Pending() > 0 {
		if err := drain(&q); err != nil {
			t.Fatal(err)
		}
		settle()
	}
	if next != len(posts) {
		t.Fatalf("settled %d frames, want %d", next, len(posts))
	}
	if len(q.segs) != 0 {
		t.Fatalf("%d segments left in a drained queue", len(q.segs))
	}
	return borrowed
}

// TestQueueMixedSegmentsVectored: owned and borrowed segments through
// FlushTo with random short writes give the reference stream byte for
// byte.
func TestQueueMixedSegmentsVectored(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		posts := mixedPosts(rng, 150)
		w := &chokedWriter{rng: rng, max: 9000}
		borrowed := drainMixed(t, rng, posts, func(q *Queue) error {
			_, _, err := q.FlushTo(w)
			for _, b := range q.iov[:cap(q.iov)] {
				if b != nil {
					return errors.New("FlushTo left an iovec entry behind")
				}
			}
			return err
		})
		if borrowed == 0 {
			t.Fatal("seed drew no borrowed segment")
		}
		if !bytes.Equal(w.dst.Bytes(), reference(posts, 42)) {
			t.Fatalf("seed %d: stream differs from the reference concatenation", seed)
		}
	}
}

// TestQueueMixedSegmentsCells: the same mix through PumpTo into cells
// of random size, with random ring-full stalls.
func TestQueueMixedSegmentsCells(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		posts := mixedPosts(rng, 150)
		r := &stallRing{rng: rng}
		borrowed := drainMixed(t, rng, posts, func(q *Queue) error {
			q.PumpTo(r)
			return nil
		})
		if borrowed == 0 {
			t.Fatal("seed drew no borrowed segment")
		}
		if !bytes.Equal(r.dst.Bytes(), reference(posts, 42)) {
			t.Fatalf("seed %d: stream differs from the reference concatenation", seed)
		}
	}
}

// TestQueueTakeAllForgetsBorrowed: emptying the queue on a loss path
// returns every frame once and keeps no way back to a poster's buffer —
// the frames are failed right after, and a failed request's buffer is
// the caller's again.
func TestQueueTakeAllForgetsBorrowed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	posts := mixedPosts(rng, 40)
	var q Queue
	l := testLink(t, bodyCodec{}, 42)
	var bodies []*seg
	for i, p := range posts {
		if err := q.Append(l, fabric.EndpointID(1000+i), p.payload, len(p.payload), i, p.signaled); err != nil {
			t.Fatal(err)
		}
		if last := q.segs[len(q.segs)-1]; last.borrowed {
			bodies = append(bodies, last)
		}
	}
	// Part of the stream is on the wire, mid-segment, when the loss hits.
	if _, _, err := q.FlushTo(&brokenWriter{left: int(q.Pending()) / 3}); err == nil {
		t.Fatal("the connection was meant to break")
	}
	if len(bodies) == 0 || q.Pending() == 0 {
		t.Fatalf("%d borrowed bodies, %d bytes pending: nothing to lose", len(bodies), q.Pending())
	}
	settled := len(q.PopSettled(nil))
	frames := q.TakeAll(nil)
	if settled+len(frames) != len(posts) {
		t.Fatalf("%d settled + %d taken, want %d frames", settled, len(frames), len(posts))
	}
	for i, f := range frames {
		if f.Token != settled+i {
			t.Fatalf("taken frame %d carries token %v", i, f.Token)
		}
	}
	if q.Pending() != 0 || len(q.segs) != 0 || len(q.frames) != 0 {
		t.Fatalf("queue not empty after TakeAll: pending=%d segs=%d frames=%d", q.Pending(), len(q.segs), len(q.frames))
	}
	for _, s := range bodies {
		if s.buf != nil {
			t.Fatal("a borrowed segment still points at its poster's buffer")
		}
	}
	for _, b := range q.iov[:cap(q.iov)] {
		if b != nil {
			t.Fatal("the iovec scratch still points at a segment")
		}
	}
}

// TestAppendEncodeErrorUnwinds: a payload the codec refuses leaves the
// open segment exactly as it was.
func TestAppendEncodeErrorUnwinds(t *testing.T) {
	var q Queue
	l := testLink(t, bodyCodec{}, 42)
	if err := q.Append(l, 1000, []byte("first"), 5, 0, true); err != nil {
		t.Fatal(err)
	}
	for _, signaled := range []bool{false, true} {
		if err := q.Append(l, 1001, "not bytes", 0, 1, signaled); err == nil {
			t.Fatal("Append accepted a payload its codec cannot encode")
		}
	}
	var w bytes.Buffer
	if _, _, err := q.FlushTo(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), reference([]mixedPost{{payload: []byte("first")}}, 42)) {
		t.Fatal("a refused frame left bytes in the stream")
	}
}

// TestReassembly: a frame assembled from pieces is the frame.
func TestReassembly(t *testing.T) {
	frame := make([]byte, 3*nic.BulkMin)
	rand.New(rand.NewSource(9)).Read(frame)
	var a reassembly
	if a.Active() || !stageable(len(frame)) || stageable(nic.BulkMin-1) || stageable(nic.MaxStaging+1) {
		t.Fatal("wrong idea of what is assembled in staging")
	}
	a.Stage(len(frame), frame[:100])
	done := false
	for off := 100; !done; {
		n := copy(a.Tail(), frame[off:min(off+1500, len(frame))])
		off += n
		done = a.Filled(n)
	}
	_, _, _, payload, err := a.Finish(bodyCodec{})
	if err != nil || a.Active() || !bytes.Equal(payload.([]byte), frame[HdrLen+4:]) {
		t.Fatalf("assembled frame differs (err %v)", err)
	}
	a.Stage(len(frame), nil)
	a.Drop()
	if a.Active() {
		t.Fatal("Drop left the assembly active")
	}
}
