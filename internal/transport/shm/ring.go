package shm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// The cross-process ring is an SPSC cell ring in an mmap'd file: one
// ring per directed rank pair, fixed-size cells, the producer's cursor
// (tail) and the consumer's cursor (head) on separate cache lines of
// the shared header. A cell carries one chunk
// of the pair's byte stream; frames larger than a cell are chunked
// across consecutive cells by sender-side progress, exactly the
// paper's intra-node story taken across a process boundary.
//
// Layout of one ring file:
//
//	0   u32 magic, u32 version, u32 cells, u32 cellPayload
//	64  u64 tail     (producer cursor, atomic)
//	128 u64 head     (consumer cursor, atomic)
//	136 i64 poll     (consumer's poll stamp, atomic; see pollStamp)
//	192 u32 goodbye  (producer sets on graceful close, atomic)
//	256 cells: each [u32 chunkLen][cellPayload bytes], stride 4+cellPayload
//
// Both sides open the file O_CREATE and ftruncate it to the same
// deterministic size, so creation is idempotent and a zero-filled
// fresh file is already a valid empty ring (head == tail == 0).
// Cursors are published with atomic stores; mmap'd pages of the same
// file are cache-coherent across processes (and across two mappings in
// one process, which is how the in-process conformance suite runs).
const (
	ringMagic   = 0x73686d31 // "shm1"
	ringVersion = 2

	offMagic       = 0
	offVersion     = 4
	offCells       = 8
	offCellPayload = 12
	offTail        = 64
	offHead        = 128
	offPollStamp   = 136
	offGoodbye     = 192
	ringHdrSize    = 256

	cellLenSize = 4
)

// ringSize returns the file size for the given geometry.
func ringSize(cells, cellPayload int) int {
	return ringHdrSize + cells*(cellLenSize+cellPayload)
}

// ring is one side's view of a mapped SPSC ring. The same struct
// serves the producer and the consumer; the SPSC discipline (owner's
// peer mutex on the tx side, the receive drain on the rx side) keeps
// each cursor single-writer.
type ring struct {
	mem  []byte
	tail *atomic.Uint64
	head *atomic.Uint64
	// pollStamp is the consumer's word to the producer: the wall time
	// (UnixNano) of a recent caller-thread poll of this ring, or zero —
	// at rest, and from the moment a waiter decides to park. The
	// producer rings the consumer's doorbell only when the stamp is
	// zero or older than pollStampWindow: a consumer that is polling
	// finds the cell itself. It shares the head's cache line, which the
	// producer reads after every publish anyway.
	pollStamp   *atomic.Int64
	goodbye     *atomic.Uint32
	cells       int
	cellPayload int
	stride      int
	data        []byte
}

// openRing interprets an existing mapping, stamping the header of a
// fresh (zero-filled) file and validating a previously stamped one.
func openRing(mem []byte, cells, cellPayload int) (*ring, error) {
	if len(mem) < ringSize(cells, cellPayload) {
		return nil, fmt.Errorf("shm: mapping too small: %d < %d", len(mem), ringSize(cells, cellPayload))
	}
	magic := (*atomic.Uint32)(unsafe.Pointer(&mem[offMagic]))
	switch magic.Load() {
	case 0:
		// Fresh file: stamp the geometry. Both sides race here with
		// identical values, so last-writer-wins is benign.
		binary.LittleEndian.PutUint32(mem[offVersion:], ringVersion)
		binary.LittleEndian.PutUint32(mem[offCells:], uint32(cells))
		binary.LittleEndian.PutUint32(mem[offCellPayload:], uint32(cellPayload))
		magic.Store(ringMagic)
	case ringMagic:
		if v := binary.LittleEndian.Uint32(mem[offVersion:]); v != ringVersion {
			return nil, fmt.Errorf("shm: ring version %d, want %d", v, ringVersion)
		}
		if c := int(binary.LittleEndian.Uint32(mem[offCells:])); c != cells {
			return nil, fmt.Errorf("shm: ring geometry mismatch: %d cells, want %d", c, cells)
		}
		if p := int(binary.LittleEndian.Uint32(mem[offCellPayload:])); p != cellPayload {
			return nil, fmt.Errorf("shm: ring geometry mismatch: cell payload %d, want %d", p, cellPayload)
		}
	default:
		return nil, fmt.Errorf("shm: bad ring magic %#x", magic.Load())
	}
	return &ring{
		mem:         mem,
		tail:        (*atomic.Uint64)(unsafe.Pointer(&mem[offTail])),
		head:        (*atomic.Uint64)(unsafe.Pointer(&mem[offHead])),
		pollStamp:   (*atomic.Int64)(unsafe.Pointer(&mem[offPollStamp])),
		goodbye:     (*atomic.Uint32)(unsafe.Pointer(&mem[offGoodbye])),
		cells:       cells,
		cellPayload: cellPayload,
		stride:      cellLenSize + cellPayload,
		data:        mem[ringHdrSize:],
	}, nil
}

// free returns the producer's view of unoccupied cells.
func (r *ring) free() int { return r.cells - int(r.tail.Load()-r.head.Load()) }

// occupied returns the consumer's view of filled cells.
func (r *ring) occupied() int { return int(r.tail.Load() - r.head.Load()) }

// empty is the consumer's one-load emptiness probe (the tail load; its
// own head cursor is stable under the SPSC discipline).
func (r *ring) empty() bool { return r.tail.Load() == r.head.Load() }

// pushChunk copies one chunk (len(b) <= cellPayload) into the next
// free cell and publishes it. Returns false when the ring is full.
func (r *ring) pushChunk(b []byte) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(r.cells) {
		return false
	}
	cell := r.data[int(tail%uint64(r.cells))*r.stride:]
	binary.LittleEndian.PutUint32(cell, uint32(len(b)))
	copy(cell[cellLenSize:], b)
	r.tail.Store(tail + 1) // release: publishes the cell contents
	return true
}

// Claim returns the next free cell's payload slice (capacity
// cellPayload) without publishing, letting the producer copy into the
// mapping directly; Publish(n) then stamps the chunk length and
// advances the cursor. Returns nil when the ring is full
// (framing.CellRing).
func (r *ring) Claim() []byte {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(r.cells) {
		return nil
	}
	cell := r.data[int(tail%uint64(r.cells))*r.stride:]
	return cell[cellLenSize : cellLenSize+r.cellPayload]
}

// Publish completes a Claim: n is the chunk length copied into the
// claimed cell.
func (r *ring) Publish(n int) {
	tail := r.tail.Load()
	cell := r.data[int(tail%uint64(r.cells))*r.stride:]
	binary.LittleEndian.PutUint32(cell, uint32(n))
	r.tail.Store(tail + 1)
}

// peek returns the oldest unconsumed chunk, valid until advance.
// Returns nil when the ring is empty.
func (r *ring) peek() []byte {
	head := r.head.Load()
	if r.tail.Load() == head {
		return nil
	}
	cell := r.data[int(head%uint64(r.cells))*r.stride:]
	n := binary.LittleEndian.Uint32(cell)
	if int(n) > r.cellPayload {
		n = uint32(r.cellPayload) // corrupt length: clamp, the frame parser rejects it
	}
	return cell[cellLenSize : cellLenSize+n]
}

// advance consumes the chunk returned by peek.
func (r *ring) advance() { r.head.Add(1) }

// sayGoodbye publishes the graceful-departure marker. The consumer
// only honors it once the ring has drained, so in-flight frames still
// deliver.
func (r *ring) sayGoodbye() { r.goodbye.Store(1) }

// departed reports whether the producer announced a graceful close.
func (r *ring) departed() bool { return r.goodbye.Load() != 0 }
