package nic

import (
	"math/bits"
	"sync"
)

// BulkMin is the payload size — one shared-memory ring cell — from
// which the byte transports stop copying a payload into their own
// buffers: a signaled send's body of at least BulkMin bytes is borrowed
// by the out-queue instead of encoded into a segment, and a received
// payload of at least BulkMin bytes lands in a pooled staging buffer
// instead of a fresh allocation. Below it the copy is cheaper than the
// bookkeeping and coalescing wins.
const BulkMin = 4096

// Staging buffers hold received payloads between the transport and the
// copy into the user's buffer. They come in power-of-two classes, each
// with stagingSlack spare bytes so that a frame assembled in place —
// frame header, codec headers, then a power-of-two payload — fits the
// payload's own class.
const (
	stagingSlack   = 256
	stagingClasses = 9 // 4 KiB … 1 MiB
)

// stagingBox carries a buffer through a sync.Pool without allocating a
// slice header per Put; empty boxes cycle through boxPool.
type stagingBox struct{ b []byte }

var (
	stagingPools [stagingClasses]sync.Pool
	boxPool      = sync.Pool{New: func() any { return new(stagingBox) }}
)

// stagingClass returns the smallest class holding n bytes, or -1.
func stagingClass(n int) int {
	if n <= BulkMin+stagingSlack {
		return 0
	}
	c := bits.Len(uint(n-stagingSlack-1)) - bits.Len(uint(BulkMin-1))
	if c >= stagingClasses {
		return -1
	}
	return c
}

func stagingClassSize(c int) int { return BulkMin<<c + stagingSlack }

// MaxStaging is the largest pooled buffer.
const MaxStaging = BulkMin<<(stagingClasses-1) + stagingSlack

// GetStaging returns a buffer of length n. Buffers of at least BulkMin
// bytes (up to the largest class) are pooled and should come back
// through PutStaging once their bytes have been copied out; anything
// else is a plain allocation.
func GetStaging(n int) []byte {
	c := stagingClass(n)
	if n < BulkMin || c < 0 {
		return make([]byte, n)
	}
	if x := stagingPools[c].Get(); x != nil {
		box := x.(*stagingBox)
		b := box.b
		box.b = nil
		boxPool.Put(box)
		return b[:n]
	}
	return make([]byte, n, stagingClassSize(c))
}

// PutStaging returns a GetStaging buffer to its pool. The caller must
// not touch b afterwards. Buffers that did not come from a pooled class
// (nil, small, oversize, foreign) are left to the collector.
func PutStaging(b []byte) {
	c := stagingClass(cap(b))
	if c < 0 || cap(b) != stagingClassSize(c) {
		return
	}
	box := boxPool.Get().(*stagingBox)
	box.b = b[:0]
	stagingPools[c].Put(box)
}
