package datatype

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"gompix/internal/core"
	"gompix/internal/timing"
)

func fill(n int, seed int64) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(b)
	return b
}

func TestBaseTypes(t *testing.T) {
	cases := []struct {
		dt   *Datatype
		size int
	}{{Byte, 1}, {Int32, 4}, {Int64, 8}, {Uint64, 8}, {Float32, 4}, {Float64, 8}}
	for _, c := range cases {
		if c.dt.Size() != c.size || c.dt.Extent() != c.size {
			t.Fatalf("%s: size=%d extent=%d", c.dt.Name(), c.dt.Size(), c.dt.Extent())
		}
		if !c.dt.Contig() {
			t.Fatalf("%s should be contiguous", c.dt.Name())
		}
	}
}

func TestContiguous(t *testing.T) {
	dt := Contiguous(5, Int32)
	if dt.Size() != 20 || dt.Extent() != 20 || !dt.Contig() {
		t.Fatalf("contig: %v", dt)
	}
	if len(dt.Blocks()) != 1 {
		t.Fatalf("blocks should coalesce: %v", dt.Blocks())
	}
}

func TestVectorLayout(t *testing.T) {
	// 3 blocks of 2 int32s, stride 4 int32s: offsets 0, 16, 32 (8 bytes each).
	dt := Vector(3, 2, 4, Int32)
	if dt.Size() != 24 {
		t.Fatalf("size = %d, want 24", dt.Size())
	}
	if dt.Extent() != 2*16+8 {
		t.Fatalf("extent = %d, want 40", dt.Extent())
	}
	want := []Block{{0, 8}, {16, 8}, {32, 8}}
	got := dt.Blocks()
	if len(got) != len(want) {
		t.Fatalf("blocks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", got, want)
		}
	}
	if dt.Contig() {
		t.Fatal("strided vector must not be contiguous")
	}
}

func TestVectorContiguousCollapse(t *testing.T) {
	// blocklen == stride means the vector is actually contiguous.
	dt := Vector(4, 3, 3, Byte)
	if !dt.Contig() {
		t.Fatalf("vector(4,3,3) should be contiguous: %v", dt)
	}
}

func TestVectorOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping vector should panic")
		}
	}()
	Vector(2, 4, 2, Byte)
}

func TestIndexed(t *testing.T) {
	// blocks of 2 and 1 int32 at element displacements 1 and 4.
	dt := Indexed([]int{2, 1}, []int{1, 4}, Int32)
	if dt.Size() != 12 {
		t.Fatalf("size = %d", dt.Size())
	}
	if dt.Extent() != 20 {
		t.Fatalf("extent = %d, want 20", dt.Extent())
	}
	want := []Block{{4, 8}, {16, 4}}
	got := dt.Blocks()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("blocks = %v, want %v", got, want)
	}
}

func TestStructType(t *testing.T) {
	// {int32 a; float64 b} with b at offset 8.
	dt := StructType([]int{1, 1}, []int{0, 8}, []*Datatype{Int32, Float64})
	if dt.Size() != 12 || dt.Extent() != 16 {
		t.Fatalf("struct size=%d extent=%d", dt.Size(), dt.Extent())
	}
	if len(dt.Blocks()) != 2 {
		t.Fatalf("blocks = %v", dt.Blocks())
	}
}

func TestResized(t *testing.T) {
	dt := Resized(Int32, 16)
	if dt.Extent() != 16 || dt.Size() != 4 {
		t.Fatalf("resized: %v", dt)
	}
	// Two resized elements are 16 bytes apart.
	src := fill(32, 1)
	dst := make([]byte, 8)
	Pack(dst, src, 2, dt)
	if !bytes.Equal(dst[:4], src[:4]) || !bytes.Equal(dst[4:], src[16:20]) {
		t.Fatal("resized pack picked wrong bytes")
	}
}

func TestPackUnpackRoundtripVector(t *testing.T) {
	dt := Vector(4, 3, 5, Byte)
	count := 3
	span := BufferSpan(count, dt)
	src := fill(span, 7)
	wire := make([]byte, PackedSize(count, dt))
	if n := Pack(wire, src, count, dt); n != len(wire) {
		t.Fatalf("packed %d, want %d", n, len(wire))
	}
	dst := make([]byte, span)
	if n := Unpack(dst, wire, count, dt); n != len(wire) {
		t.Fatalf("unpacked %d", n)
	}
	// Every byte inside a block must match; gap bytes stay zero.
	for i := 0; i < count; i++ {
		base := i * dt.Extent()
		for _, b := range dt.Blocks() {
			if !bytes.Equal(dst[base+b.Off:base+b.Off+b.Len], src[base+b.Off:base+b.Off+b.Len]) {
				t.Fatalf("mismatch at elem %d block %v", i, b)
			}
		}
	}
}

func TestBufferSpan(t *testing.T) {
	dt := Vector(2, 1, 3, Int32) // blocks at 0 and 12, extent 16
	if got := BufferSpan(1, dt); got != 16 {
		t.Fatalf("span(1) = %d, want 16", got)
	}
	if got := BufferSpan(3, dt); got != 2*16+16 {
		t.Fatalf("span(3) = %d, want 48", got)
	}
	if BufferSpan(0, dt) != 0 {
		t.Fatal("span(0) should be 0")
	}
}

// Property: Pack then Unpack into a zeroed buffer reproduces exactly
// the bytes covered by blocks, for random indexed types.
func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64, rawLens [3]uint8, rawDispls [3]uint8, rawCount uint8) bool {
		lens := make([]int, 3)
		displs := make([]int, 3)
		next := 0
		for i := 0; i < 3; i++ {
			lens[i] = int(rawLens[i]%4) + 1
			displs[i] = next + int(rawDispls[i]%3)
			next = displs[i] + lens[i] // keep blocks non-overlapping, increasing
		}
		dt := Indexed(lens, displs, Int32)
		count := int(rawCount%4) + 1
		span := BufferSpan(count, dt)
		src := fill(span, seed)
		wire := make([]byte, PackedSize(count, dt))
		Pack(wire, src, count, dt)
		dst := make([]byte, span)
		Unpack(dst, wire, count, dt)
		for i := 0; i < count; i++ {
			base := i * dt.Extent()
			for _, b := range dt.Blocks() {
				if !bytes.Equal(dst[base+b.Off:base+b.Off+b.Len], src[base+b.Off:base+b.Off+b.Len]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"contig":        func() { Contiguous(-1, Byte) },
		"vector":        func() { Vector(-1, 1, 1, Byte) },
		"indexed-len":   func() { Indexed([]int{-1}, []int{0}, Byte) },
		"indexed-arity": func() { Indexed([]int{1}, []int{0, 1}, Byte) },
		"struct-arity":  func() { StructType([]int{1}, []int{0}, []*Datatype{Byte, Byte}) },
		"resized":       func() { Resized(Byte, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// newStream is a bare progress stream: jobs run under the engine every
// other async thing runs under.
func newStream() *core.Stream {
	return core.NewEngine(timing.NewManualClock()).NewStream()
}

// TestEngineAsyncPack: a pack job started on a stream moves
// DefaultChunk bytes per pass, so it finishes in ceil(bytes/chunk)
// polls, each of which is progress, and gives the per-block
// reference's bytes.
func TestEngineAsyncPack(t *testing.T) {
	s := newStream()
	dt := Vector(8, 4, 6, Byte) // 32 data bytes per element, gapped
	count := 2*DefaultChunk/dt.Size() + 1
	src := fill(BufferSpan(count, dt), 3)
	wire := make([]byte, PackedSize(count, dt))
	job := NewPack(wire, src, count, dt)
	s.AsyncStart(job.Poll, nil)
	if job.IsComplete() {
		t.Fatal("job complete before any poll")
	}
	if s.PendingAsync() != 1 {
		t.Fatalf("pending = %d", s.PendingAsync())
	}
	wantPolls := (len(wire) + DefaultChunk - 1) / DefaultChunk
	for polls := 1; !job.IsComplete(); polls++ {
		if !s.Progress() {
			t.Fatal("pass made no progress with a pending job")
		}
		if done := polls == wantPolls; job.IsComplete() != done {
			t.Fatalf("after %d polls complete=%v, want completion at exactly %d", polls, job.IsComplete(), wantPolls)
		}
	}
	want := make([]byte, len(wire))
	packBlocks(want, src, count, dt)
	if !bytes.Equal(wire, want) {
		t.Fatal("async pack result differs from the per-block reference")
	}
	if st := s.Stats(); int(st.AsyncPolls) != wantPolls || st.MadeByClass[core.ClassAsync] != uint64(wantPolls) {
		t.Fatalf("stats = %+v, want %d polls all counted as async-class progress", st, wantPolls)
	}
	if s.PendingAsync() != 0 || s.Progress() {
		t.Fatal("stream should be idle")
	}
}

func TestEngineAsyncUnpack(t *testing.T) {
	s := newStream()
	dt := Indexed([]int{2, 3}, []int{0, 4}, Byte)
	count := 3
	wire := fill(PackedSize(count, dt), 11)
	typed := make([]byte, BufferSpan(count, dt))
	job := NewUnpack(typed, wire, count, dt)
	s.AsyncStart(job.Poll, nil)
	for !job.IsComplete() {
		s.Progress()
	}
	want := make([]byte, len(typed))
	Unpack(want, wire, count, dt)
	if !bytes.Equal(typed, want) {
		t.Fatal("async unpack differs from sync unpack")
	}
	if job.BytesMoved() != len(wire) {
		t.Fatalf("BytesMoved = %d, want %d", job.BytesMoved(), len(wire))
	}
}

func TestEngineZeroCountImmediate(t *testing.T) {
	job := NewPack(nil, nil, 0, Int32)
	if !job.IsComplete() {
		t.Fatal("zero-count job should complete immediately")
	}
	// Starting it anyway is harmless: its first poll retires it.
	s := newStream()
	s.AsyncStart(job.Poll, nil)
	s.Progress()
	if s.PendingAsync() != 0 {
		t.Fatal("no pending jobs expected")
	}
}

func TestEngineMultipleJobs(t *testing.T) {
	s := newStream()
	dt := Contiguous(10, Byte)
	type pair struct {
		job        *Job
		wire, want []byte
	}
	var jobs []pair
	for i := 0; i < 5; i++ {
		src := fill(10, int64(i))
		wire := make([]byte, 10)
		job := NewPack(wire, src, 1, dt)
		s.AsyncStart(job.Poll, nil)
		jobs = append(jobs, pair{job, wire, src})
	}
	for s.PendingAsync() > 0 {
		s.Progress()
	}
	for i, p := range jobs {
		if !p.job.IsComplete() || !bytes.Equal(p.wire, p.want) {
			t.Fatalf("job %d wrong", i)
		}
	}
	if st := s.Stats(); st.AsyncDone != 5 {
		t.Fatalf("AsyncDone = %d, want 5", st.AsyncDone)
	}
}
