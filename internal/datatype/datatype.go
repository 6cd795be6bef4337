// Package datatype implements an MPI-style datatype system: predefined
// base types, derived layouts (contiguous, vector, indexed, struct),
// pack/unpack between typed application buffers and contiguous wire
// buffers, and asynchronous pack/unpack jobs (Job) — the "datatype
// engine" entry of MPICH's progress function (paper Listing 1.1), here
// an async thing of whichever stream it is started on.
package datatype

import (
	"fmt"
	"sort"
)

// Block is one contiguous byte run of a datatype's layout, relative to
// the start of an element.
type Block struct {
	Off int
	Len int
}

// Datatype describes a memory layout. Immutable once created; safe for
// concurrent use.
type Datatype struct {
	name   string
	size   int // bytes of actual data per element
	extent int // span of one element including gaps
	blocks []Block
}

// Predefined base types.
var (
	Byte    = newBase("byte", 1)
	Int32   = newBase("int32", 4)
	Int64   = newBase("int64", 8)
	Uint64  = newBase("uint64", 8)
	Float32 = newBase("float32", 4)
	Float64 = newBase("float64", 8)
)

func newBase(name string, size int) *Datatype {
	return &Datatype{name: name, size: size, extent: size, blocks: []Block{{0, size}}}
}

// Name returns a diagnostic name for the type.
func (d *Datatype) Name() string { return d.name }

// Size returns the number of data bytes in one element.
func (d *Datatype) Size() int { return d.size }

// Extent returns the span of one element, including gaps.
func (d *Datatype) Extent() int { return d.extent }

// Blocks returns the flattened layout of one element.
func (d *Datatype) Blocks() []Block { return d.blocks }

// Contig reports whether the layout is a single gap-free run whose
// extent equals its size, so count elements are contiguous in memory.
func (d *Datatype) Contig() bool {
	return len(d.blocks) == 1 && d.blocks[0].Off == 0 && d.blocks[0].Len == d.size && d.extent == d.size
}

func (d *Datatype) String() string {
	return fmt.Sprintf("%s(size=%d extent=%d blocks=%d)", d.name, d.size, d.extent, len(d.blocks))
}

// coalesce merges adjacent blocks after sorting by offset.
func coalesce(blocks []Block) []Block {
	if len(blocks) <= 1 {
		return blocks
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Off < blocks[j].Off })
	out := blocks[:1]
	for _, b := range blocks[1:] {
		last := &out[len(out)-1]
		if last.Off+last.Len == b.Off {
			last.Len += b.Len
		} else if b.Off < last.Off+last.Len {
			panic("datatype: overlapping blocks")
		} else {
			out = append(out, b)
		}
	}
	return out
}

// replicate expands base's blocks at count positions spaced by
// strideBytes.
func replicate(base *Datatype, count, strideBytes int) []Block {
	blocks := make([]Block, 0, count*len(base.blocks))
	for i := 0; i < count; i++ {
		off := i * strideBytes
		for _, b := range base.blocks {
			blocks = append(blocks, Block{Off: off + b.Off, Len: b.Len})
		}
	}
	return coalesce(blocks)
}

// Contiguous returns a type of count consecutive base elements
// (MPI_Type_contiguous).
func Contiguous(count int, base *Datatype) *Datatype {
	if count < 0 {
		panic("datatype: negative count")
	}
	return &Datatype{
		name:   fmt.Sprintf("contig(%d,%s)", count, base.name),
		size:   count * base.size,
		extent: count * base.extent,
		blocks: replicate(base, count, base.extent),
	}
}

// Vector returns count blocks of blocklen base elements, with
// consecutive blocks separated by stride base elements
// (MPI_Type_vector; stride counted in elements of base).
func Vector(count, blocklen, stride int, base *Datatype) *Datatype {
	if count < 0 || blocklen < 0 {
		panic("datatype: negative count/blocklen")
	}
	if blocklen > stride && count > 1 {
		panic("datatype: vector blocks overlap (blocklen > stride)")
	}
	inner := Contiguous(blocklen, base)
	blocks := replicate(inner, count, stride*base.extent)
	extent := 0
	if count > 0 {
		extent = (count-1)*stride*base.extent + blocklen*base.extent
	}
	return &Datatype{
		name:   fmt.Sprintf("vector(%d,%d,%d,%s)", count, blocklen, stride, base.name),
		size:   count * blocklen * base.size,
		extent: extent,
		blocks: blocks,
	}
}

// Indexed returns a type with len(blocklens) blocks; block i has
// blocklens[i] base elements at displacement displs[i] (in base
// extents), mirroring MPI_Type_indexed.
func Indexed(blocklens, displs []int, base *Datatype) *Datatype {
	if len(blocklens) != len(displs) {
		panic("datatype: blocklens/displs length mismatch")
	}
	var blocks []Block
	size := 0
	maxEnd := 0
	for i, bl := range blocklens {
		if bl < 0 {
			panic("datatype: negative blocklen")
		}
		off := displs[i] * base.extent
		inner := Contiguous(bl, base)
		for _, b := range inner.blocks {
			blocks = append(blocks, Block{Off: off + b.Off, Len: b.Len})
		}
		size += bl * base.size
		if end := off + bl*base.extent; end > maxEnd {
			maxEnd = end
		}
	}
	return &Datatype{
		name:   fmt.Sprintf("indexed(%d,%s)", len(blocklens), base.name),
		size:   size,
		extent: maxEnd,
		blocks: coalesce(blocks),
	}
}

// StructType builds a heterogeneous type from byte displacements and
// member types (MPI_Type_create_struct, without alignment padding).
func StructType(counts []int, displsBytes []int, types []*Datatype) *Datatype {
	if len(counts) != len(displsBytes) || len(counts) != len(types) {
		panic("datatype: struct argument length mismatch")
	}
	var blocks []Block
	size := 0
	maxEnd := 0
	for i := range counts {
		member := Contiguous(counts[i], types[i])
		for _, b := range member.blocks {
			blocks = append(blocks, Block{Off: displsBytes[i] + b.Off, Len: b.Len})
		}
		size += member.size
		if end := displsBytes[i] + member.extent; end > maxEnd {
			maxEnd = end
		}
	}
	return &Datatype{
		name:   fmt.Sprintf("struct(%d)", len(counts)),
		size:   size,
		extent: maxEnd,
		blocks: coalesce(blocks),
	}
}

// Resized returns the same layout with a new extent
// (MPI_Type_create_resized with lb=0).
func Resized(base *Datatype, extent int) *Datatype {
	if extent < 0 {
		panic("datatype: negative extent")
	}
	return &Datatype{
		name:   fmt.Sprintf("resized(%s,%d)", base.name, extent),
		size:   base.size,
		extent: extent,
		blocks: base.blocks,
	}
}

// PackedSize returns the number of wire bytes for count elements.
func PackedSize(count int, d *Datatype) int { return count * d.size }

// BufferSpan returns the number of application-buffer bytes spanned by
// count elements (the minimum buffer length).
func BufferSpan(count int, d *Datatype) int {
	if count == 0 {
		return 0
	}
	last := 0
	for _, b := range d.blocks {
		if end := b.Off + b.Len; end > last {
			last = end
		}
	}
	return (count-1)*d.extent + last
}

// Pack gathers count elements laid out as d in src into the contiguous
// dst, returning the number of bytes written. dst must have at least
// PackedSize(count, d) capacity. count elements of a Contig type are
// one run in memory and move as one copy; gapped layouts walk their
// blocks.
func Pack(dst, src []byte, count int, d *Datatype) int {
	if d.Contig() {
		n := count * d.size
		return copy(dst[:n], src[:n])
	}
	return packBlocks(dst, src, count, d)
}

// Unpack scatters contiguous src bytes into dst laid out as d,
// returning the number of bytes consumed.
func Unpack(dst, src []byte, count int, d *Datatype) int {
	if d.Contig() {
		n := count * d.size
		return copy(dst[:n], src[:n])
	}
	return unpackBlocks(dst, src, count, d)
}

// packBlocks is the per-block gather: the path for gapped layouts and
// the reference the contiguous run is tested against.
func packBlocks(dst, src []byte, count int, d *Datatype) int {
	pos := 0
	for i := 0; i < count; i++ {
		base := i * d.extent
		for _, b := range d.blocks {
			pos += copy(dst[pos:pos+b.Len], src[base+b.Off:base+b.Off+b.Len])
		}
	}
	return pos
}

// unpackBlocks is the per-block scatter (see packBlocks).
func unpackBlocks(dst, src []byte, count int, d *Datatype) int {
	pos := 0
	for i := 0; i < count; i++ {
		base := i * d.extent
		for _, b := range d.blocks {
			pos += copy(dst[base+b.Off:base+b.Off+b.Len], src[pos:pos+b.Len])
		}
	}
	return pos
}
