package main

import (
	"encoding/binary"
	"math"
)

// Every message carries its sequence number and a pattern derived from
// the run's seed, so a reordered, truncated or corrupted delivery is
// caught in the loop that timed it. The first eight bytes (sequence +
// seed tag) are rewritten and checked on every message; buffers of
// sixteen bytes or more also carry an eight-byte tail word, and a body
// that is a pure function of (seed, slot) and is compared in full on
// one message in fullCheckEvery and on every warm-up message.

const fullCheckEvery = 64

// mix is splitmix64: the one generator every seeded choice comes from.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stamp writes the per-message words of message seq into buf
// (len(buf) >= 8).
func stamp(buf []byte, seed uint64, seq uint32) {
	binary.LittleEndian.PutUint32(buf, seq)
	binary.LittleEndian.PutUint32(buf[4:], uint32(mix(seed^uint64(seq))))
	if n := len(buf); n >= 16 {
		binary.LittleEndian.PutUint64(buf[n-8:], mix(seed+uint64(seq)))
	}
}

// checkEnds verifies the words stamp wrote.
func checkEnds(buf []byte, seed uint64, seq uint32) bool {
	if binary.LittleEndian.Uint32(buf) != seq ||
		binary.LittleEndian.Uint32(buf[4:]) != uint32(mix(seed^uint64(seq))) {
		return false
	}
	if n := len(buf); n >= 16 {
		return binary.LittleEndian.Uint64(buf[n-8:]) == mix(seed+uint64(seq))
	}
	return true
}

// fillBody writes the body of the buffer in window slot `slot`: the
// bytes between the head and tail words.
func fillBody(buf []byte, seed uint64, slot int) {
	if len(buf) < 24 {
		return
	}
	body := buf[8 : len(buf)-8]
	x := mix(seed ^ uint64(slot)<<32)
	for len(body) >= 8 {
		x = mix(x)
		binary.LittleEndian.PutUint64(body, x)
		body = body[8:]
	}
	for i := range body {
		body[i] = byte(x >> (8 * uint(i)))
	}
}

// checkBody verifies what fillBody wrote.
func checkBody(buf []byte, seed uint64, slot int) bool {
	if len(buf) < 24 {
		return true
	}
	body := buf[8 : len(buf)-8]
	x := mix(seed ^ uint64(slot)<<32)
	for len(body) >= 8 {
		x = mix(x)
		if binary.LittleEndian.Uint64(body) != x {
			return false
		}
		body = body[8:]
	}
	for i := range body {
		if body[i] != byte(x>>(8*uint(i))) {
			return false
		}
	}
	return true
}

// newBuf returns a size-byte buffer at a seed-derived offset inside its
// allocation, so alignment relative to cache lines and pages varies
// with the seed and slot, never with the program.
func newBuf(size int, seed uint64, slot int) []byte {
	off := int(mix(seed+uint64(slot)*7919)%64) * 8
	return make([]byte, off+size)[off:]
}

// Allreduce inputs are small integers stored as float64, so the sum is
// exact in any association order and the closed form below is what
// every rank must end up with.

// reduceBase is element i's seed-derived base value.
func reduceBase(seed uint64, i int) float64 { return float64(mix(seed+uint64(i)) % 1024) }

// fillReduce writes rank's contribution for every element.
func fillReduce(buf []byte, seed uint64, rank int) {
	for i := 0; i < len(buf)/8; i++ {
		putF64(buf, i, reduceBase(seed, i)+float64(rank))
	}
}

// stampReduce makes operation seq's contribution distinct in the first
// and last element, the two that are checked on every operation.
func stampReduce(buf []byte, seed uint64, rank int, seq uint32) {
	n := len(buf) / 8
	k := float64(seq % 1000)
	putF64(buf, 0, reduceBase(seed, 0)+float64(rank)+k)
	if n > 1 {
		putF64(buf, n-1, reduceBase(seed, n-1)+float64(rank)+k)
	}
}

// reduceWant is the closed-form sum of element i over `ranks` ranks.
func reduceWant(seed uint64, ranks, i, n int, seq uint32) float64 {
	want := float64(ranks)*reduceBase(seed, i) + float64(ranks*(ranks-1)/2)
	if i == 0 || i == n-1 {
		want += float64(ranks) * float64(seq%1000)
	}
	return want
}

// checkReduce verifies the ends of an Allreduce result, or every
// element when full is set.
func checkReduce(buf []byte, seed uint64, ranks int, seq uint32, full bool) bool {
	n := len(buf) / 8
	if !full {
		return getF64(buf, 0) == reduceWant(seed, ranks, 0, n, seq) &&
			getF64(buf, n-1) == reduceWant(seed, ranks, n-1, n, seq)
	}
	for i := 0; i < n; i++ {
		if getF64(buf, i) != reduceWant(seed, ranks, i, n, seq) {
			return false
		}
	}
	return true
}

func putF64(buf []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
}

func getF64(buf []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
}
