package datatype

import "testing"

func BenchmarkPackContiguous(b *testing.B) {
	dt := Contiguous(1024, Byte)
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Pack(dst, src, 1, dt)
	}
}

func BenchmarkPackVectorStrided(b *testing.B) {
	dt := Vector(64, 8, 16, Byte) // 512 data bytes across a 1016-byte span
	src := make([]byte, BufferSpan(1, dt))
	dst := make([]byte, PackedSize(1, dt))
	b.SetBytes(int64(dt.Size()))
	for i := 0; i < b.N; i++ {
		Pack(dst, src, 1, dt)
	}
}

func BenchmarkEngineAsyncPack(b *testing.B) {
	s := newStream()
	dt := Vector(64, 8, 16, Byte)
	src := make([]byte, BufferSpan(4, dt))
	dst := make([]byte, PackedSize(4, dt))
	b.SetBytes(int64(4 * dt.Size()))
	for i := 0; i < b.N; i++ {
		job := NewPack(dst, src, 4, dt)
		s.AsyncStart(job.Poll, nil)
		for !job.IsComplete() {
			s.Progress()
		}
	}
}
