package datatype

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// randomType draws one derived type; about half the draws are built
// to be gap-free, so both sides of the Contig branch are exercised.
func randomType(rng *rand.Rand) *Datatype {
	bases := []*Datatype{Byte, Int32, Float64}
	base := bases[rng.Intn(len(bases))]
	n := rng.Intn(5) + 1
	switch rng.Intn(7) {
	case 0:
		return base
	case 1:
		return Contiguous(n, base)
	case 2: // blocklen == stride collapses to one run
		bl := rng.Intn(3) + 1
		return Vector(n, bl, bl, base)
	case 3:
		bl := rng.Intn(3) + 1
		return Vector(n, bl, bl+rng.Intn(3)+1, base)
	case 4:
		lens, displs := make([]int, n), make([]int, n)
		next := 0
		for i := range lens {
			lens[i] = rng.Intn(3) + 1
			displs[i] = next + rng.Intn(2) // gap of 0 or 1 element
			next = displs[i] + lens[i]
		}
		return Indexed(lens, displs, base)
	case 5:
		gap := rng.Intn(2) * 4
		return StructType([]int{2, 1}, []int{0, 2*base.Size() + gap}, []*Datatype{base, Int32})
	default:
		// Same layout, new extent: extent == size stays one run, any
		// other extent spaces the elements apart.
		inner := Contiguous(n, base)
		return Resized(inner, inner.Size()+rng.Intn(2)*base.Size())
	}
}

// stepAll drives one job to completion, chunk bytes per step: the sweep
// over chunk sizes a stream's fixed DefaultChunk cannot make.
func stepAll(j *Job, chunk int) {
	for !j.step(chunk) {
	}
}

// stepBlocksAll is the job reference: the per-block stepper alone.
func stepBlocksAll(j *Job, chunk int) {
	for !j.stepBlocks(chunk) {
	}
}

// TestRunMatchesBlocks: Pack, Unpack and the async job give the
// per-block reference's bytes for every layout and count, count == 0
// included.
func TestRunMatchesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(20240913))
	for iter := 0; iter < 2000; iter++ {
		dt := randomType(rng)
		count := rng.Intn(6)
		chunk := rng.Intn(24) + 1
		name := fmt.Sprintf("iter %d: %v count=%d chunk=%d", iter, dt, count, chunk)
		span, packed := BufferSpan(count, dt), PackedSize(count, dt)
		typed := fill(span, int64(iter))

		want := make([]byte, packed)
		wantN := packBlocks(want, typed, count, dt)
		got := make([]byte, packed)
		if n := Pack(got, typed, count, dt); n != wantN || !bytes.Equal(got, want) {
			t.Fatalf("%s: Pack wrote %d bytes, reference %d; equal=%v", name, n, wantN, bytes.Equal(got, want))
		}
		async := make([]byte, packed)
		stepAll(NewPack(async, typed, count, dt), chunk)
		ref := make([]byte, packed)
		stepBlocksAll(NewPack(ref, typed, count, dt), chunk)
		if !bytes.Equal(async, want) || !bytes.Equal(ref, want) {
			t.Fatalf("%s: job pack differs from reference", name)
		}

		// Unpack into a patterned buffer: bytes in the gaps must survive.
		wire := fill(packed, int64(iter)+7)
		wantT := fill(span, int64(iter)+9)
		wantN = unpackBlocks(wantT, wire, count, dt)
		gotT := fill(span, int64(iter)+9)
		if n := Unpack(gotT, wire, count, dt); n != wantN || !bytes.Equal(gotT, wantT) {
			t.Fatalf("%s: Unpack consumed %d bytes, reference %d; equal=%v", name, n, wantN, bytes.Equal(gotT, wantT))
		}
		asyncT := fill(span, int64(iter)+9)
		job := NewUnpack(asyncT, wire, count, dt)
		stepAll(job, chunk)
		if !bytes.Equal(asyncT, wantT) || job.BytesMoved() != packed {
			t.Fatalf("%s: job unpack differs from reference (moved %d of %d)", name, job.BytesMoved(), packed)
		}
	}
}

// TestResizedExtentNotOneRun: a Resized type whose extent differs from
// its size has gaps between elements and must take the per-block path.
func TestResizedExtentNotOneRun(t *testing.T) {
	dt := Resized(Contiguous(4, Byte), 6)
	if dt.Contig() {
		t.Fatalf("%v reports Contig with extent != size", dt)
	}
	typed := fill(BufferSpan(3, dt), 1)
	wire := make([]byte, PackedSize(3, dt))
	Pack(wire, typed, 3, dt)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(wire[i*4:i*4+4], typed[i*6:i*6+4]) {
			t.Fatalf("element %d packed across the gap: %v", i, wire)
		}
	}
	if same := Resized(Contiguous(4, Byte), 4); !same.Contig() {
		t.Fatalf("%v should be one run", same)
	}
}

// TestShortDstPanics: a wire buffer shorter than PackedSize is a caller
// bug on both paths — the run must not quietly move fewer bytes than
// the reference would have refused to.
func TestShortDstPanics(t *testing.T) {
	panics := func(fn func()) (p bool) {
		defer func() { p = recover() != nil }()
		fn()
		return false
	}
	for _, dt := range []*Datatype{Contiguous(8, Byte), Vector(4, 2, 3, Byte)} {
		typed := fill(BufferSpan(2, dt), 5)
		short := make([]byte, PackedSize(2, dt)-1)
		if !panics(func() { packBlocks(short, typed, 2, dt) }) {
			t.Fatalf("%v: reference accepted a short dst", dt)
		}
		if !panics(func() { Pack(short, typed, 2, dt) }) {
			t.Fatalf("%v: Pack accepted a short dst", dt)
		}
		if !panics(func() { Unpack(typed, short, 2, dt) }) {
			t.Fatalf("%v: Unpack accepted a short src", dt)
		}
		if !panics(func() { stepAll(NewPack(short, typed, 2, dt), 4) }) {
			t.Fatalf("%v: job accepted a short wire buffer", dt)
		}
	}
}
