// Package reduceop implements MPI reduction operators over the base
// datatypes, operating directly on little-endian byte buffers so that
// collective algorithms can reduce wire data in place.
package reduceop

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"gompix/internal/datatype"
)

// Op identifies a predefined reduction operator.
type Op int

const (
	// Sum adds elementwise (MPI_SUM).
	Sum Op = iota
	// Prod multiplies elementwise (MPI_PROD).
	Prod
	// Min takes the elementwise minimum (MPI_MIN).
	Min
	// Max takes the elementwise maximum (MPI_MAX).
	Max
	// LAnd is logical AND: nonzero is true (MPI_LAND).
	LAnd
	// LOr is logical OR (MPI_LOR).
	LOr
	// BAnd is bitwise AND on integer types (MPI_BAND).
	BAnd
	// BOr is bitwise OR (MPI_BOR).
	BOr
	// BXor is bitwise XOR (MPI_BXOR).
	BXor

	numOps
)

var opNames = [numOps]string{"sum", "prod", "min", "max", "land", "lor", "band", "bor", "bxor"}

// String returns the operator name.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Commutative reports whether the operator is commutative. All
// predefined operators are.
func (o Op) Commutative() bool { return true }

// bitwise reports whether the op only makes sense on integer types.
func (o Op) bitwise() bool { return o == BAnd || o == BOr || o == BXor }

// Apply computes inout[i] = op(inout[i], in[i]) for count elements of
// the base datatype dt. Both buffers hold densely packed elements
// (dt.Size() bytes each). It panics on non-base datatypes, unsupported
// op/type combinations, or short buffers.
//
// The work is one loop per (type, op) pair, the op chosen once per call.
// When both buffers are aligned for dt and the host is little-endian
// the loop runs over them as typed slices, at memory speed; otherwise
// it decodes and encodes every element (applyRef). Both compute the same
// per-element operation in the same order, so the result is
// bit-identical either way.
func Apply(op Op, dt *datatype.Datatype, inout, in []byte, count int) {
	size := dt.Size()
	if !dt.Contig() {
		panic("reduceop: Apply requires a contiguous base datatype")
	}
	if len(inout) < count*size || len(in) < count*size {
		panic("reduceop: buffer shorter than count elements")
	}
	switch dt {
	case datatype.Int32:
		if x, y, ok := typed[int32](inout, in, count); ok {
			intLoop(op, x, y)
			return
		}
	case datatype.Int64:
		if x, y, ok := typed[int64](inout, in, count); ok {
			intLoop(op, x, y)
			return
		}
	case datatype.Uint64:
		if x, y, ok := typed[uint64](inout, in, count); ok {
			intLoop(op, x, y)
			return
		}
	case datatype.Float32:
		if x, y, ok := typed[float32](inout, in, count); ok {
			floatLoop(op, x, y)
			return
		}
	case datatype.Float64:
		if x, y, ok := typed[float64](inout, in, count); ok {
			floatLoop(op, x, y)
			return
		}
	case datatype.Byte:
		intLoop(op, inout[:count], in[:count])
		return
	default:
		panic(fmt.Sprintf("reduceop: unsupported datatype %s", dt.Name()))
	}
	applyRef(op, dt, inout, in, count)
}

// littleEndian reports the host byte order: the typed loops read wire
// bytes (little-endian by definition) as native words.
var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// typed views the first count elements of inout and in as []T, when the
// host is little-endian and both buffers are aligned for T.
func typed[T int32 | int64 | uint64 | float32 | float64](inout, in []byte, count int) (x, y []T, ok bool) {
	if count == 0 {
		return nil, nil, true
	}
	var z T
	align := uintptr(unsafe.Alignof(z))
	p, q := unsafe.Pointer(&inout[0]), unsafe.Pointer(&in[0])
	if !littleEndian || uintptr(p)%align != 0 || uintptr(q)%align != 0 {
		return nil, nil, false
	}
	return unsafe.Slice((*T)(p), count), unsafe.Slice((*T)(q), count), true
}

// intLoop is x[i] = op(x[i], y[i]) over integer elements.
func intLoop[T int32 | int64 | uint64 | uint8](op Op, x, y []T) {
	if len(x) == 0 {
		return
	}
	y = y[:len(x)]
	switch op {
	case Sum:
		for i := range x {
			x[i] += y[i]
		}
	case Prod:
		for i := range x {
			x[i] *= y[i]
		}
	case Min:
		for i := range x {
			x[i] = min(x[i], y[i])
		}
	case Max:
		for i := range x {
			x[i] = max(x[i], y[i])
		}
	case LAnd:
		for i := range x {
			x[i] = truth[T](x[i] != 0 && y[i] != 0)
		}
	case LOr:
		for i := range x {
			x[i] = truth[T](x[i] != 0 || y[i] != 0)
		}
	case BAnd:
		for i := range x {
			x[i] &= y[i]
		}
	case BOr:
		for i := range x {
			x[i] |= y[i]
		}
	case BXor:
		for i := range x {
			x[i] ^= y[i]
		}
	default:
		panic("reduceop: unknown op")
	}
}

// floatLoop is x[i] = op(x[i], y[i]) over floating-point elements,
// computed in float64 as reduceFloat64 does (for float32 that is the
// correctly rounded float32 result: float64 carries more than twice its
// precision).
func floatLoop[T float32 | float64](op Op, x, y []T) {
	if len(x) == 0 {
		return
	}
	y = y[:len(x)]
	switch op {
	case Sum:
		for i := range x {
			x[i] = T(float64(x[i]) + float64(y[i]))
		}
	case Prod:
		for i := range x {
			x[i] = T(float64(x[i]) * float64(y[i]))
		}
	case Min:
		for i := range x {
			x[i] = T(math.Min(float64(x[i]), float64(y[i])))
		}
	case Max:
		for i := range x {
			x[i] = T(math.Max(float64(x[i]), float64(y[i])))
		}
	case LAnd:
		for i := range x {
			x[i] = truth[T](x[i] != 0 && y[i] != 0)
		}
	case LOr:
		for i := range x {
			x[i] = truth[T](x[i] != 0 || y[i] != 0)
		}
	default:
		panic(fmt.Sprintf("reduceop: %v not defined on floating point", op))
	}
}

// truth is a logical op's result: 1 for true, 0 for false.
func truth[T int32 | int64 | uint64 | uint8 | float32 | float64](b bool) T {
	if b {
		return 1
	}
	return 0
}

// applyRef is Apply one element at a time through the byte encoding,
// the op chosen per element: the path for misaligned buffers or a
// big-endian host, and the reference the typed loops are tested
// against.
func applyRef(op Op, dt *datatype.Datatype, inout, in []byte, count int) {
	switch dt {
	case datatype.Int32:
		applyInt32(op, inout, in, count)
	case datatype.Int64:
		applyInt64(op, inout, in, count)
	case datatype.Uint64:
		applyUint64(op, inout, in, count)
	case datatype.Float32:
		applyFloat32(op, inout, in, count)
	case datatype.Float64:
		applyFloat64(op, inout, in, count)
	case datatype.Byte:
		applyByte(op, inout, in, count)
	default:
		panic(fmt.Sprintf("reduceop: unsupported datatype %s", dt.Name()))
	}
}

func applyInt32(op Op, inout, in []byte, count int) {
	for i := 0; i < count; i++ {
		o := i * 4
		a := int32(binary.LittleEndian.Uint32(inout[o:]))
		b := int32(binary.LittleEndian.Uint32(in[o:]))
		binary.LittleEndian.PutUint32(inout[o:], uint32(reduceInt64(op, int64(a), int64(b))))
	}
}

func applyInt64(op Op, inout, in []byte, count int) {
	for i := 0; i < count; i++ {
		o := i * 8
		a := int64(binary.LittleEndian.Uint64(inout[o:]))
		b := int64(binary.LittleEndian.Uint64(in[o:]))
		binary.LittleEndian.PutUint64(inout[o:], uint64(reduceInt64(op, a, b)))
	}
}

func applyUint64(op Op, inout, in []byte, count int) {
	for i := 0; i < count; i++ {
		o := i * 8
		a := binary.LittleEndian.Uint64(inout[o:])
		b := binary.LittleEndian.Uint64(in[o:])
		binary.LittleEndian.PutUint64(inout[o:], reduceUint64(op, a, b))
	}
}

func applyByte(op Op, inout, in []byte, count int) {
	for i := 0; i < count; i++ {
		inout[i] = byte(reduceUint64(op, uint64(inout[i]), uint64(in[i])))
	}
}

func applyFloat32(op Op, inout, in []byte, count int) {
	for i := 0; i < count; i++ {
		o := i * 4
		a := math.Float32frombits(binary.LittleEndian.Uint32(inout[o:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(in[o:]))
		binary.LittleEndian.PutUint32(inout[o:], math.Float32bits(float32(reduceFloat64(op, float64(a), float64(b)))))
	}
}

func applyFloat64(op Op, inout, in []byte, count int) {
	for i := 0; i < count; i++ {
		o := i * 8
		a := math.Float64frombits(binary.LittleEndian.Uint64(inout[o:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(in[o:]))
		binary.LittleEndian.PutUint64(inout[o:], math.Float64bits(reduceFloat64(op, a, b)))
	}
}

func reduceInt64(op Op, a, b int64) int64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	case LAnd:
		return boolToInt(a != 0 && b != 0)
	case LOr:
		return boolToInt(a != 0 || b != 0)
	case BAnd:
		return a & b
	case BOr:
		return a | b
	case BXor:
		return a ^ b
	default:
		panic("reduceop: unknown op")
	}
}

func reduceUint64(op Op, a, b uint64) uint64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	case LAnd:
		return uint64(boolToInt(a != 0 && b != 0))
	case LOr:
		return uint64(boolToInt(a != 0 || b != 0))
	case BAnd:
		return a & b
	case BOr:
		return a | b
	case BXor:
		return a ^ b
	default:
		panic("reduceop: unknown op")
	}
}

func reduceFloat64(op Op, a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Min:
		return math.Min(a, b)
	case Max:
		return math.Max(a, b)
	case LAnd:
		return float64(boolToInt(a != 0 && b != 0))
	case LOr:
		return float64(boolToInt(a != 0 || b != 0))
	default:
		panic(fmt.Sprintf("reduceop: %v not defined on floating point", op))
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// EncodeInt32s packs a Go slice into a little-endian byte buffer.
func EncodeInt32s(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// DecodeInt32s unpacks a little-endian byte buffer into int32s.
func DecodeInt32s(buf []byte) []int32 {
	out := make([]int32, len(buf)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}

// EncodeInt64s packs a Go slice into a little-endian byte buffer.
func EncodeInt64s(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// DecodeInt64s unpacks a little-endian byte buffer into int64s.
func DecodeInt64s(buf []byte) []int64 {
	out := make([]int64, len(buf)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

// EncodeFloat64s packs a Go slice into a little-endian byte buffer.
func EncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// DecodeFloat64s unpacks a little-endian byte buffer into float64s.
func DecodeFloat64s(buf []byte) []float64 {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}
