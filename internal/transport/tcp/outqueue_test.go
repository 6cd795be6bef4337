package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/transport/framing"
)

// shortWriter accepts at most budget bytes per Write call, honoring the
// io.Writer contract by returning io.ErrShortWrite on truncation — the
// shape of a shaped/backpressured connection.
type shortWriter struct {
	dst    bytes.Buffer
	budget int
}

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) <= w.budget {
		w.dst.Write(p)
		return len(p), nil
	}
	w.dst.Write(p[:w.budget])
	return w.budget, io.ErrShortWrite
}

// errStutter is a transient per-call stop: stutterWriter writes one
// bounded chunk and then reports it so the caller regains control
// between chunks.
var errStutter = errors.New("stutter")

type stutterWriter struct {
	dst    bytes.Buffer
	budget int
}

func (w *stutterWriter) Write(p []byte) (int, error) {
	n := len(p)
	if n > w.budget {
		n = w.budget
	}
	w.dst.Write(p[:n])
	return n, errStutter
}

// queueLink registers a bare link at endpoint id, as AddLink would, on
// a table whose codec is nic.ByteCodec.
func queueLink(t *testing.T, id fabric.EndpointID) *Link {
	t.Helper()
	tab := framing.NewTable()
	tab.SetCodec(nic.ByteCodec{})
	l := new(Link)
	if err := tab.Register(&l.Link, id); err != nil {
		t.Fatal(err)
	}
	return l
}

// fillQueue appends count frames of seeded pseudo-random sizes (biased
// to straddle the queue's 32K segment boundary) and returns the expected
// payloads in post order.
func fillQueue(t *testing.T, q *framing.Queue, l *Link, count int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, count)
	for i := 0; i < count; i++ {
		var size int
		switch rng.Intn(3) {
		case 0:
			size = 1 + rng.Intn(24)
		case 1:
			size = 16<<10 + rng.Intn(32<<10)
		default:
			size = 100 + rng.Intn(4000)
		}
		b := make([]byte, size)
		rng.Read(b)
		payloads[i] = b
		if err := q.Append(&l.Link, fabric.EndpointID(1000+i), b, size, i, true); err != nil {
			t.Fatal(err)
		}
	}
	return payloads
}

// verifyStream re-parses the written byte stream and checks every frame
// boundary, header and payload against the posted order — proof that no
// write fragmentation split, duplicated or reordered frame bytes.
func verifyStream(t *testing.T, stream []byte, src fabric.EndpointID, payloads [][]byte) {
	t.Helper()
	for i, want := range payloads {
		if len(stream) < 4 {
			t.Fatalf("frame %d: stream truncated at length prefix", i)
		}
		flen := binary.LittleEndian.Uint32(stream)
		total := 4 + int(flen)
		if len(stream) < total {
			t.Fatalf("frame %d: stream has %d bytes of a %d-byte frame", i, len(stream), total)
		}
		frame := stream[4:total]
		if got := fabric.EndpointID(binary.LittleEndian.Uint64(frame[0:])); got != fabric.EndpointID(1000+i) {
			t.Fatalf("frame %d: dst endpoint %d, want %d", i, got, 1000+i)
		}
		if got := fabric.EndpointID(binary.LittleEndian.Uint64(frame[8:])); got != src {
			t.Fatalf("frame %d: src endpoint %d, want %d", i, got, src)
		}
		if got := int(binary.LittleEndian.Uint32(frame[16:])); got != len(want) {
			t.Fatalf("frame %d: bytes field %d, want %d", i, got, len(want))
		}
		if !bytes.Equal(frame[framing.HdrLen:], want) {
			t.Fatalf("frame %d: payload corrupted across write fragmentation", i)
		}
		stream = stream[total:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(stream))
	}
}

// TestOutQueueShortWriteResume: a connection that accepts only a few
// bytes per write forces the io.ErrShortWrite resume path on every
// flush iteration; the resulting stream must still be byte-exact, with
// every frame settling exactly once, in post order.
func TestOutQueueShortWriteResume(t *testing.T) {
	l := queueLink(t, 7)
	var q framing.Queue
	payloads := fillQueue(t, &q, l, 40, 1)
	w := &shortWriter{budget: 13}
	made, _, err := q.FlushTo(w)
	if err != nil || !made {
		t.Fatalf("FlushTo = (%v, %v), want clean full drain", made, err)
	}
	if q.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", q.Pending())
	}
	verifyStream(t, w.dst.Bytes(), l.ID(), payloads)
	settled := q.PopSettled(nil)
	if len(settled) != len(payloads) {
		t.Fatalf("settled %d frames, want %d", len(settled), len(payloads))
	}
	for i, f := range settled {
		if f.Token != i {
			t.Fatalf("settlement %d carries token %v — out of post order", i, f.Token)
		}
	}
}

// TestOutQueueStutteredSettlement: a writer that surrenders control
// after every bounded chunk lets the test observe the watermark
// mid-flight — popSettled may only release frames whose bytes are
// fully written, in order, never early and never twice.
func TestOutQueueStutteredSettlement(t *testing.T) {
	l := queueLink(t, 9)
	var q framing.Queue
	payloads := fillQueue(t, &q, l, 25, 2)
	w := &stutterWriter{budget: 4096}
	next := 0
	for q.Pending() > 0 {
		if _, _, err := q.FlushTo(w); err != nil && err != errStutter {
			t.Fatal(err)
		}
		for _, f := range q.PopSettled(nil) {
			if f.Token != next {
				t.Fatalf("settlement token %v, want %d", f.Token, next)
			}
			if f.End > q.Written() {
				t.Fatalf("frame %d settled at end=%d past written=%d", next, f.End, q.Written())
			}
			next++
		}
	}
	if next != len(payloads) {
		t.Fatalf("settled %d frames, want %d", next, len(payloads))
	}
	verifyStream(t, w.dst.Bytes(), l.ID(), payloads)
}

// TestOutQueueMultiSegmentVectoredResume: enough traffic to seal many
// segments makes buildIOV hand multi-entry vectors to the writer, and
// the short-write resume must rebuild the vector from the watermark —
// including re-slicing a partially written head segment.
func TestOutQueueMultiSegmentVectoredResume(t *testing.T) {
	l := queueLink(t, 3)
	var q framing.Queue
	payloads := fillQueue(t, &q, l, 120, 3)
	w := &stutterWriter{budget: 7 << 10} // smaller than a sealed segment
	maxSegs := 0
	for q.Pending() > 0 {
		_, nsegs, err := q.FlushTo(w)
		if err != nil && err != errStutter {
			t.Fatal(err)
		}
		maxSegs = max(maxSegs, nsegs)
	}
	if maxSegs < 3 {
		t.Fatalf("want ≥ 3 segments in one vector to exercise writev, got %d", maxSegs)
	}
	verifyStream(t, w.dst.Bytes(), l.ID(), payloads)
	if got := len(q.PopSettled(nil)); got != len(payloads) {
		t.Fatalf("settled %d frames, want %d", got, len(payloads))
	}
}
