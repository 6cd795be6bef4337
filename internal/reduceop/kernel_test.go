package reduceop

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"gompix/internal/datatype"
)

// kernelTypes are the base datatypes Apply reduces, each with the ops
// defined on it.
var kernelTypes = []struct {
	dt  *datatype.Datatype
	ops []Op
}{
	{datatype.Int32, intOps},
	{datatype.Int64, intOps},
	{datatype.Uint64, intOps},
	{datatype.Byte, intOps},
	{datatype.Float32, floatOps},
	{datatype.Float64, floatOps},
}

var (
	intOps   = []Op{Sum, Prod, Min, Max, LAnd, LOr, BAnd, BOr, BXor}
	floatOps = []Op{Sum, Prod, Min, Max, LAnd, LOr}
)

// specials returns the edge values of dt, little-endian encoded: zero,
// ±1, the extremes, and for floats ±0, ±Inf, NaNs of both signs with
// different payloads, and the smallest subnormal.
func specials(dt *datatype.Datatype) [][]byte {
	var out [][]byte
	switch dt {
	case datatype.Float64:
		for _, bits := range []uint64{
			0, 1 << 63, // +0, -0
			math.Float64bits(1), math.Float64bits(-1), math.Float64bits(2.5),
			math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
			0x7ff8000000000001, 0xfff8000000000123, 0x7ff0000000000042, // qNaN, -qNaN, sNaN
			1, math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
		} {
			out = append(out, binary.LittleEndian.AppendUint64(nil, bits))
		}
	case datatype.Float32:
		for _, bits := range []uint32{
			0, 1 << 31,
			math.Float32bits(1), math.Float32bits(-1), math.Float32bits(2.5),
			math.Float32bits(float32(math.Inf(1))), math.Float32bits(float32(math.Inf(-1))),
			0x7fc00001, 0xffc00123, 0x7f800042,
			1, math.Float32bits(math.MaxFloat32), math.Float32bits(-math.MaxFloat32),
		} {
			out = append(out, binary.LittleEndian.AppendUint32(nil, bits))
		}
	case datatype.Int32:
		for _, v := range []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32} {
			out = append(out, binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
	case datatype.Int64, datatype.Uint64:
		for _, v := range []int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64} {
			out = append(out, binary.LittleEndian.AppendUint64(nil, uint64(v)))
		}
	case datatype.Byte:
		for _, v := range []byte{0, 1, 7, 0x80, 0xff} {
			out = append(out, []byte{v})
		}
	}
	return out
}

// pairs lays out count elements for inout and in such that, once count
// reaches len(specials)², every ordered pair of edge values meets.
func pairs(dt *datatype.Datatype, count int) (a, b []byte) {
	sp := specials(dt)
	k := len(sp)
	for i := 0; i < count; i++ {
		a = append(a, sp[i%k]...)
		b = append(b, sp[(i/k)%k]...)
	}
	return a, b
}

// at copies src into a fresh buffer at byte offset off from an 8-byte
// aligned base, so off 0 is aligned for every type and off 1 for none
// wider than a byte.
func at(src []byte, off int) []byte {
	buf := make([]byte, off+len(src)+8)[off : off+len(src)]
	copy(buf, src)
	return buf
}

// checkKernel runs Apply and the per-element reference on the same
// inputs placed at the given offsets and requires identical bytes.
func checkKernel(t testing.TB, op Op, dt *datatype.Datatype, a, b []byte, count, offA, offB int) {
	t.Helper()
	got, want := at(a, offA), at(a, offA)
	in := at(b, offB)
	Apply(op, dt, got, in, count)
	applyRef(op, dt, want, in, count)
	if !bytes.Equal(got, want) {
		for i := 0; i < count; i++ {
			lo, hi := i*dt.Size(), (i+1)*dt.Size()
			if !bytes.Equal(got[lo:hi], want[lo:hi]) {
				t.Fatalf("%v %s offs %d/%d element %d: inout %x in %x: got %x, reference %x",
					op, dt.Name(), offA, offB, i, a[lo:hi], b[lo:hi], got[lo:hi], want[lo:hi])
			}
		}
	}
}

// TestKernelMatchesReference holds every (type, op) loop to the
// per-element reference, byte for byte: aligned and misaligned buffers,
// counts 0, 1, odd and one covering every pair of edge values (NaN, ±0
// and ±Inf included for the float Min, Max and Sum).
func TestKernelMatchesReference(t *testing.T) {
	for _, kt := range kernelTypes {
		k := len(specials(kt.dt))
		for _, op := range kt.ops {
			for _, count := range []int{0, 1, 3, 7, 31, k * k} {
				a, b := pairs(kt.dt, count)
				for _, offs := range [][2]int{{0, 0}, {1, 0}, {0, 3}, {4, 4}, {5, 2}} {
					t.Run(fmt.Sprintf("%s/%v/n=%d/off=%d,%d", kt.dt.Name(), op, count, offs[0], offs[1]), func(t *testing.T) {
						checkKernel(t, op, kt.dt, a, b, count, offs[0], offs[1])
					})
				}
			}
		}
	}
}

// TestKernelTakesTypedPath: aligned buffers on a little-endian host run
// the typed loops, misaligned ones the reference — so the table above
// exercises both.
func TestKernelTakesTypedPath(t *testing.T) {
	if !littleEndian {
		t.Skip("big-endian host: every reduction takes the reference path")
	}
	a := at(make([]byte, 64), 0)
	if _, _, ok := typed[float64](a, a, 8); !ok {
		t.Error("aligned float64 buffers did not take the typed loop")
	}
	if _, _, ok := typed[float64](at(a, 1), a, 7); ok {
		t.Error("a misaligned float64 buffer took the typed loop")
	}
	if _, _, ok := typed[int32](at(a, 4), at(a, 4), 8); !ok {
		t.Error("4-byte aligned int32 buffers did not take the typed loop")
	}
}

// FuzzApply feeds arbitrary bytes through every (type, op) pair at
// arbitrary offsets: the first half of data is inout, the second in.
func FuzzApply(f *testing.F) {
	for ti, kt := range kernelTypes {
		a, b := pairs(kt.dt, len(specials(kt.dt)))
		f.Add(uint8(ti), uint8(0), uint8(0), uint8(0), append(a, b...))
		f.Add(uint8(ti), uint8(2), uint8(1), uint8(3), append(a, b...))
	}
	f.Fuzz(func(t *testing.T, ti, oi, offA, offB uint8, data []byte) {
		kt := kernelTypes[int(ti)%len(kernelTypes)]
		op := kt.ops[int(oi)%len(kt.ops)]
		count := len(data) / 2 / kt.dt.Size()
		n := count * kt.dt.Size()
		checkKernel(t, op, kt.dt, data[:n], data[n:2*n], count, int(offA%8), int(offB%8))
	})
}

// BenchmarkApply times a 256 KiB Sum per type (the coll-2x2 large
// allreduce size) and reports the inout bytes reduced per second.
func BenchmarkApply(b *testing.B) {
	const size = 256 << 10
	for _, kt := range kernelTypes {
		b.Run(kt.dt.Name(), func(b *testing.B) {
			x, y := at(make([]byte, size), 0), at(make([]byte, size), 0)
			count := size / kt.dt.Size()
			for i := range y {
				y[i] = byte(i % 7)
			}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Apply(Sum, kt.dt, x, y, count)
			}
			b.ReportMetric(float64(size)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
		})
	}
}
