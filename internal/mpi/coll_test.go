package mpi

import (
	"testing"

	"gompix/internal/datatype"
	"gompix/internal/reduceop"
)

// runColl runs fn over worlds with several sizes and topologies.
func runColl(t *testing.T, sizes []int, fn func(*Proc)) {
	t.Helper()
	for _, p := range sizes {
		for _, perNode := range []int{p, 1, 2} {
			if perNode > p {
				continue
			}
			cfg := Config{Procs: p, ProcsPerNode: perNode, Fabric: fastFabric()}
			run2(t, cfg, fn)
		}
	}
}

func TestBarrierIntegration(t *testing.T) {
	runColl(t, []int{1, 2, 4, 5}, func(p *Proc) {
		comm := p.CommWorld()
		for i := 0; i < 3; i++ {
			comm.Barrier()
		}
	})
}

func TestBcastIntegration(t *testing.T) {
	runColl(t, []int{2, 3, 4, 7}, func(p *Proc) {
		comm := p.CommWorld()
		buf := make([]byte, 8)
		root := comm.Size() - 1
		if p.Rank() == root {
			copy(buf, payload(8, 11))
		}
		comm.Bcast(buf, 8, datatype.Byte, root)
		if !equalBytes(buf, payload(8, 11)) {
			t.Errorf("rank %d: bcast mismatch", p.Rank())
		}
	})
}

func TestAllreduceSumInt32(t *testing.T) {
	runColl(t, []int{1, 2, 3, 4, 6, 8}, func(p *Proc) {
		comm := p.CommWorld()
		n := comm.Size()
		in := reduceop.EncodeInt32s([]int32{int32(p.Rank() + 1), 100})
		out := make([]byte, len(in))
		comm.Allreduce(in, out, 2, datatype.Int32, reduceop.Sum)
		got := reduceop.DecodeInt32s(out)
		if got[0] != int32(n*(n+1)/2) || got[1] != int32(100*n) {
			t.Errorf("rank %d: allreduce got %v (n=%d)", p.Rank(), got, n)
		}
	})
}

func TestAllreduceInPlace(t *testing.T) {
	run2(t, Config{Procs: 4}, func(p *Proc) {
		comm := p.CommWorld()
		buf := reduceop.EncodeInt64s([]int64{int64(p.Rank() + 1)})
		comm.Allreduce(nil, buf, 1, datatype.Int64, reduceop.Max)
		if got := reduceop.DecodeInt64s(buf)[0]; got != 4 {
			t.Errorf("in-place max = %d", got)
		}
	})
}

func TestAllreduceRingLargeIntegration(t *testing.T) {
	// Big enough to cross coll.AllreduceLongBytes and engage the ring path.
	run2(t, Config{Procs: 4, ProcsPerNode: 1}, func(p *Proc) {
		comm := p.CommWorld()
		const count = 8192 // 32 KiB of int32
		vals := make([]int32, count)
		for i := range vals {
			vals[i] = int32(p.Rank() + i)
		}
		in := reduceop.EncodeInt32s(vals)
		out := make([]byte, len(in))
		comm.Allreduce(in, out, count, datatype.Int32, reduceop.Sum)
		got := reduceop.DecodeInt32s(out)
		n := int32(comm.Size())
		for i, v := range got {
			want := n*int32(i) + n*(n-1)/2
			if v != want {
				t.Fatalf("rank %d elem %d: got %d want %d", p.Rank(), i, v, want)
				return
			}
		}
	})
}

func TestReduceIntegration(t *testing.T) {
	runColl(t, []int{2, 3, 5}, func(p *Proc) {
		comm := p.CommWorld()
		in := reduceop.EncodeFloat64s([]float64{float64(p.Rank() + 1)})
		out := make([]byte, 8)
		comm.Reduce(in, out, 1, datatype.Float64, reduceop.Prod, 0)
		if p.Rank() == 0 {
			want := 1.0
			for i := 1; i <= comm.Size(); i++ {
				want *= float64(i)
			}
			if got := reduceop.DecodeFloat64s(out)[0]; got != want {
				t.Errorf("reduce prod = %v, want %v", got, want)
			}
		}
	})
}

func TestAllgatherIntegration(t *testing.T) {
	runColl(t, []int{1, 2, 4, 6}, func(p *Proc) {
		comm := p.CommWorld()
		in := reduceop.EncodeInt32s([]int32{int32(p.Rank() * 10), int32(p.Rank()*10 + 1)})
		out := make([]byte, 8*comm.Size())
		comm.Allgather(in, 2, datatype.Int32, out)
		got := reduceop.DecodeInt32s(out)
		for r := 0; r < comm.Size(); r++ {
			if got[2*r] != int32(r*10) || got[2*r+1] != int32(r*10+1) {
				t.Errorf("rank %d: allgather got %v", p.Rank(), got)
				return
			}
		}
	})
}

// TestAllgatherLayoutsIntegration: an in-place allgather of a
// contiguous type, whose ring runs in recvBuf (each rank's block starts
// in its slot, every other slot holds garbage), and a vector type's,
// from sendBuf and in place, which go through a packed wire buffer and
// leave the gaps between its elements as they were.
func TestAllgatherLayoutsIntegration(t *testing.T) {
	runColl(t, []int{1, 2, 4, 6}, func(p *Proc) {
		comm := p.CommWorld()
		n, me := comm.Size(), int32(p.Rank())
		vals := make([]int32, 2*n)
		for i := range vals {
			vals[i] = -1
		}
		vals[2*me], vals[2*me+1] = me*10, me*10+1
		out := reduceop.EncodeInt32s(vals)
		comm.Allgather(nil, 2, datatype.Int32, out)
		got := reduceop.DecodeInt32s(out)
		for r := int32(0); r < int32(n); r++ {
			if got[2*r] != r*10 || got[2*r+1] != r*10+1 {
				t.Errorf("rank %d: in-place allgather got %v", me, got)
				return
			}
		}

		vec := datatype.Vector(2, 1, 2, datatype.Int32) // elements 0 and 2 of three
		for _, inPlace := range []bool{false, true} {
			gaps := make([]int32, 3*n)
			for i := range gaps {
				gaps[i] = -7
			}
			send := reduceop.EncodeInt32s([]int32{me * 10, -9, me*10 + 1})
			if inPlace {
				gaps[3*me], gaps[3*me+2] = me*10, me*10+1
				send = nil
			}
			out = reduceop.EncodeInt32s(gaps)
			comm.Allgather(send, 1, vec, out)
			got = reduceop.DecodeInt32s(out)
			for r := int32(0); r < int32(n); r++ {
				if got[3*r] != r*10 || got[3*r+1] != -7 || got[3*r+2] != r*10+1 {
					t.Errorf("rank %d: vector allgather (in place %v) got %v", me, inPlace, got)
					return
				}
			}
		}
	})
}

func TestAlltoallIntegration(t *testing.T) {
	runColl(t, []int{2, 4}, func(p *Proc) {
		comm := p.CommWorld()
		n := comm.Size()
		send := make([]int32, n)
		for d := range send {
			send[d] = int32(p.Rank()*100 + d)
		}
		out := make([]byte, 4*n)
		comm.Alltoall(reduceop.EncodeInt32s(send), 1, datatype.Int32, out)
		got := reduceop.DecodeInt32s(out)
		for s := 0; s < n; s++ {
			if got[s] != int32(s*100+p.Rank()) {
				t.Errorf("rank %d: alltoall got %v", p.Rank(), got)
				return
			}
		}
	})
}

func TestGatherScatterIntegration(t *testing.T) {
	runColl(t, []int{3, 4}, func(p *Proc) {
		comm := p.CommWorld()
		n := comm.Size()
		root := n - 1
		in := reduceop.EncodeInt32s([]int32{int32(p.Rank())})
		var gathered []byte
		if p.Rank() == root {
			gathered = make([]byte, 4*n)
		}
		comm.Gather(in, 1, datatype.Int32, gathered, root)
		if p.Rank() == root {
			got := reduceop.DecodeInt32s(gathered)
			for r := 0; r < n; r++ {
				if got[r] != int32(r) {
					t.Errorf("gather got %v", got)
				}
			}
			// Scatter back doubled values.
			for r := range got {
				got[r] *= 2
			}
			gathered = reduceop.EncodeInt32s(got)
		}
		out := make([]byte, 4)
		comm.Scatter(gathered, 1, datatype.Int32, out, root)
		if got := reduceop.DecodeInt32s(out)[0]; got != int32(2*p.Rank()) {
			t.Errorf("rank %d: scatter got %d", p.Rank(), got)
		}
	})
}

func TestScanIntegration(t *testing.T) {
	runColl(t, []int{1, 2, 5}, func(p *Proc) {
		comm := p.CommWorld()
		in := reduceop.EncodeInt64s([]int64{int64(p.Rank() + 1)})
		out := make([]byte, 8)
		comm.Scan(in, out, 1, datatype.Int64, reduceop.Sum)
		r := int64(p.Rank() + 1)
		if got := reduceop.DecodeInt64s(out)[0]; got != r*(r+1)/2 {
			t.Errorf("rank %d: scan got %d", p.Rank(), got)
		}
	})
}

func TestNonblockingCollectiveOverlap(t *testing.T) {
	// An Iallreduce progresses while the rank does "computation"
	// (progress-driven wait at the end), and two outstanding
	// collectives on the same comm don't interfere.
	run2(t, Config{Procs: 4, ProcsPerNode: 1}, func(p *Proc) {
		comm := p.CommWorld()
		a := reduceop.EncodeInt32s([]int32{int32(p.Rank())})
		outA := make([]byte, 4)
		outB := make([]byte, 4)
		reqA := comm.Iallreduce(a, outA, 1, datatype.Int32, reduceop.Sum)
		b := reduceop.EncodeInt32s([]int32{int32(p.Rank() + 1)})
		reqB := comm.Iallreduce(b, outB, 1, datatype.Int32, reduceop.Sum)
		reqB.Wait()
		reqA.Wait()
		if got := reduceop.DecodeInt32s(outA)[0]; got != 6 {
			t.Errorf("A = %d, want 6", got)
		}
		if got := reduceop.DecodeInt32s(outB)[0]; got != 10 {
			t.Errorf("B = %d, want 10", got)
		}
	})
}

func TestCollectiveOnStreamComm(t *testing.T) {
	run2(t, Config{Procs: 4}, func(p *Proc) {
		comm := p.CommWorld()
		s := p.StreamCreate()
		sc := comm.StreamComm(s)
		in := reduceop.EncodeInt32s([]int32{1})
		out := make([]byte, 4)
		req := sc.Iallreduce(in, out, 1, datatype.Int32, reduceop.Sum)
		for !req.IsComplete() {
			p.StreamProgress(s)
		}
		if got := reduceop.DecodeInt32s(out)[0]; got != 4 {
			t.Errorf("stream-comm allreduce = %d", got)
		}
		p.StreamFree(s)
	})
}

func TestBcastWithDerivedDatatype(t *testing.T) {
	run2(t, Config{Procs: 3}, func(p *Proc) {
		comm := p.CommWorld()
		vec := datatype.Vector(3, 2, 4, datatype.Byte)
		buf := make([]byte, datatype.BufferSpan(2, vec))
		if p.Rank() == 0 {
			copy(buf, payload(len(buf), 21))
		}
		comm.Bcast(buf, 2, vec, 0)
		want := payload(len(buf), 21)
		for i := 0; i < 2; i++ {
			base := i * vec.Extent()
			for _, b := range vec.Blocks() {
				for j := b.Off; j < b.Off+b.Len; j++ {
					if buf[base+j] != want[base+j] {
						t.Errorf("rank %d: derived bcast mismatch at %d", p.Rank(), base+j)
						return
					}
				}
			}
		}
	})
}
