package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gompix/internal/datatype"
	"gompix/internal/transport/tcp"
)

// tcpWorlds builds an n-rank multiprocess-mode job inside one test
// process: n tcp transports over loopback, one World per rank. This
// exercises exactly the code paths mpixrun uses across OS processes.
func tcpWorlds(t *testing.T, n int, cfg Config) []*World {
	t.Helper()
	nets := make([]*tcp.Network, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		tn, err := tcp.New(tcp.Config{Rank: r, WorldSize: n})
		if err != nil {
			t.Fatalf("tcp.New rank %d: %v", r, err)
		}
		nets[r] = tn
		addrs[r] = tn.Addr()
	}
	worlds := make([]*World, n)
	for r := 0; r < n; r++ {
		nets[r].SetPeerAddrs(addrs)
		c := cfg
		c.Procs = n
		c.Rank = r
		c.Transport = nets[r]
		worlds[r] = NewWorld(c)
	}
	return worlds
}

// runRemote drives every world's single rank concurrently, mirroring
// N processes each calling Run.
func runRemote(t *testing.T, worlds []*World, fn func(*Proc)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]any, len(worlds))
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			defer func() { errs[i] = recover() }()
			w.Run(fn)
		}(i, w)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", i, e)
		}
	}
}

func TestRemotePingPongAllModes(t *testing.T) {
	// Payload sizes spanning buffered eager, signaled eager, rendezvous,
	// and pipelined (multi-chunk) modes.
	sizes := []int{1, 200, 4 << 10, 96 << 10, 300 << 10}
	worlds := tcpWorlds(t, 2, Config{
		RndvThreshold: 64 << 10,
		PipelineChunk: 64 << 10,
	})
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		for _, sz := range sizes {
			msg := bytes.Repeat([]byte{byte(sz % 251)}, sz)
			if p.Rank() == 0 {
				comm.SendBytes(msg, 1, sz)
				got := make([]byte, sz)
				if st := comm.RecvBytes(got, 1, sz); st.Err != nil {
					panic(fmt.Sprintf("recv %d: %v", sz, st.Err))
				}
				if !bytes.Equal(got, msg) {
					panic(fmt.Sprintf("size %d: payload corrupted over TCP", sz))
				}
			} else {
				got := make([]byte, sz)
				if st := comm.RecvBytes(got, 0, sz); st.Err != nil {
					panic(fmt.Sprintf("recv %d: %v", sz, st.Err))
				}
				comm.SendBytes(got, 0, sz)
			}
		}
	})
}

func TestRemoteCollectives(t *testing.T) {
	const n = 4
	worlds := tcpWorlds(t, n, Config{})
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		comm.Barrier()
		// Allgather of each rank id.
		mine := []byte{byte(p.Rank())}
		all := make([]byte, n)
		comm.Allgather(mine, 1, datatype.Byte, all)
		for r := 0; r < n; r++ {
			if all[r] != byte(r) {
				panic(fmt.Sprintf("allgather[%d] = %d", r, all[r]))
			}
		}
		// Broadcast from a non-zero root.
		buf := []byte{0}
		if p.Rank() == 2 {
			buf[0] = 42
		}
		comm.Bcast(buf, 1, datatype.Byte, 2)
		if buf[0] != 42 {
			panic(fmt.Sprintf("bcast got %d", buf[0]))
		}
		comm.Barrier()
	})
}

func TestRemoteCommCreation(t *testing.T) {
	const n = 4
	worlds := tcpWorlds(t, n, Config{})
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		// Dup: independent matching context over the same group.
		dup := comm.Dup()
		if dup.Size() != n || dup.Rank() != p.Rank() {
			panic("dup shape mismatch")
		}
		dup.Barrier()
		// Split into even/odd halves, reversed order within each half.
		half := comm.Split(p.Rank()%2, -p.Rank())
		if half.Size() != n/2 {
			panic(fmt.Sprintf("split size %d", half.Size()))
		}
		// Ranks within a color are ordered by descending world rank.
		wantWorld := []int{p.Rank()%2 + 2, p.Rank() % 2}
		if got := half.WorldRank(0); got != wantWorld[0] {
			panic(fmt.Sprintf("split world rank0 = %d, want %d", got, wantWorld[0]))
		}
		// Point-to-point inside the split communicator.
		peer := 1 - half.Rank()
		msg := []byte{byte(10 + p.Rank())}
		got := make([]byte, 1)
		req1 := half.IsendBytes(msg, peer, 7)
		req2 := half.IrecvBytes(got, peer, 7)
		req1.Wait()
		req2.Wait()
		if want := byte(10 + half.WorldRank(peer)); got[0] != want {
			panic(fmt.Sprintf("split pt2pt got %d want %d", got[0], want))
		}
		// Undefined color: nextCtx bookkeeping must stay aligned.
		none := comm.Split(-1, 0)
		if none != nil {
			panic("negative color must yield nil communicator")
		}
		comm.Barrier()
	})
}

func TestRemoteStreamComm(t *testing.T) {
	const n = 2
	worlds := tcpWorlds(t, n, Config{})
	runRemote(t, worlds, func(p *Proc) {
		s := p.StreamCreate()
		sc := p.CommWorld().StreamComm(s)
		peer := 1 - p.Rank()
		msg := []byte{byte(0x60 + p.Rank())}
		got := make([]byte, 1)
		req1 := sc.IsendBytes(msg, peer, 3)
		req2 := sc.IrecvBytes(got, peer, 3)
		req1.Wait()
		req2.Wait()
		if got[0] != byte(0x60+peer) {
			panic(fmt.Sprintf("streamcomm got %#x", got[0]))
		}
		sc.Barrier()
	})
}

func TestRemoteReliableLayer(t *testing.T) {
	// The go-back-N reliability protocol must run unchanged over TCP
	// (RelCodec framing around the wire codec).
	worlds := tcpWorlds(t, 2, Config{Reliable: true})
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		peer := 1 - p.Rank()
		for i := 0; i < 20; i++ {
			sz := 1 << (i % 12)
			msg := bytes.Repeat([]byte{byte(i)}, sz)
			got := make([]byte, sz)
			reqS := comm.IsendBytes(msg, peer, i)
			reqR := comm.IrecvBytes(got, peer, i)
			reqS.Wait()
			reqR.Wait()
			if !bytes.Equal(got, msg) {
				panic(fmt.Sprintf("iter %d corrupted", i))
			}
		}
		comm.Barrier()
	})
}

func TestRemoteSelfSend(t *testing.T) {
	// A rank has no connection to itself: the tcp link loops the frame
	// back through the codec (framing.Link.Loopback), so a self-send is
	// matched like any remote arrival — handle ids, no pointers.
	worlds := tcpWorlds(t, 2, Config{})
	runRemote(t, worlds, func(p *Proc) {
		comm := p.CommWorld()
		self := p.Rank()
		// Posted first, then sent; sent first (unexpected), then posted;
		// and one message past the rendezvous threshold, whose RTS, CTS
		// and data chunks all loop back.
		for i, sz := range []int{4, 4, 4 << 10, 200 << 10} {
			msg := bytes.Repeat([]byte{byte(0x40 + i)}, sz)
			got := make([]byte, sz)
			var reqS, reqR *Request
			if i == 1 {
				reqS = comm.IsendBytes(msg, self, i)
				for q := 0; q < 4; q++ {
					p.Progress() // the arrival is queued unexpected
				}
				reqR = comm.IrecvBytes(got, self, i)
			} else {
				reqR = comm.IrecvBytes(got, self, i)
				reqS = comm.IsendBytes(msg, self, i)
			}
			reqS.Wait()
			if st := reqR.Wait(); st.Err != nil || st.Source != self || st.Bytes != sz {
				panic(fmt.Sprintf("self-send %d: status %+v", i, st))
			}
			if !bytes.Equal(got, msg) {
				panic(fmt.Sprintf("self-send %d corrupted", i))
			}
		}
		comm.Barrier()
	})
}
