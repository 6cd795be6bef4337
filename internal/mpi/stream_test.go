package mpi

import (
	"sync"
	"testing"

	"gompix/internal/core"
	"gompix/internal/fabric"
)

func TestStreamCreateAndFree(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		s := p.StreamCreate(core.WithName("worker"))
		if s.Name() != "worker" {
			t.Errorf("name = %q", s.Name())
		}
		v := p.vciFor(s)
		if v.Stream() != s || v.Endpoint() == nil {
			t.Error("VCI wiring broken")
		}
		p.StreamFree(s)
		defer func() {
			if recover() == nil {
				t.Error("vciFor on freed stream should panic")
			}
		}()
		p.vciFor(s)
	})
}

func TestFreeNullStreamPanics(t *testing.T) {
	run2(t, Config{Procs: 1}, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("freeing NULL stream should panic")
			}
		}()
		p.StreamFree(p.NullStream())
	})
}

func TestStreamCommTrafficIsolation(t *testing.T) {
	// Traffic on a stream communicator progresses via its own stream;
	// progressing only the NULL stream must not complete it.
	run2(t, Config{ProcsPerNode: 1}, func(p *Proc) {
		comm := p.CommWorld()
		s := p.StreamCreate()
		scomm := comm.StreamComm(s)
		if p.Rank() == 0 {
			scomm.SendBytes(payload(2048, 1), 1, 0)
			// Also prove the stream comm context is isolated from the
			// world comm: same tag, different communicator.
			comm.SendBytes([]byte("world"), 1, 0)
		} else {
			req := scomm.IrecvBytes(make([]byte, 2048), 0, 0)
			// Drive only the NULL stream for a while: the stream-comm
			// receive must not complete (its VCI is untouched).
			deadline := p.Wtime() + 0.01
			for p.Wtime() < deadline {
				p.Progress()
			}
			if req.IsComplete() {
				t.Error("stream-comm receive completed via NULL-stream progress")
			}
			// Now progress the stream: completes.
			for !req.IsComplete() {
				p.StreamProgress(s)
			}
			buf := make([]byte, 5)
			comm.RecvBytes(buf, 0, 0)
			if string(buf) != "world" {
				t.Errorf("world comm payload %q", buf)
			}
		}
		p.StreamFree(s)
	})
}

func TestStreamCommSameNode(t *testing.T) {
	// Stream comms must also isolate same-node traffic.
	run2(t, Config{}, func(p *Proc) {
		comm := p.CommWorld()
		s := p.StreamCreate()
		scomm := comm.StreamComm(s)
		if p.Rank() == 0 {
			scomm.SendBytes(payload(100*1024, 3), 1, 0) // rendezvous
		} else {
			buf := make([]byte, 100*1024)
			req := scomm.IrecvBytes(buf, 0, 0)
			for !req.IsComplete() {
				p.StreamProgress(s)
			}
			if !equalBytes(buf, payload(100*1024, 3)) {
				t.Error("same-node stream payload mismatch")
			}
		}
		p.StreamFree(s)
	})
}

// TestStreamCommAfterStreamFree: a stream created after another was
// freed gets a VCI of its own — a byte transport computes the address
// from the VCI index, so a reused index would name a live link twice —
// whose endpoint the transport maps back to its rank, and a stream
// communicator over it carries a rendezvous.
func TestStreamCommAfterStreamFree(t *testing.T) {
	for _, kind := range []string{"sim", "tcp", "shm"} {
		t.Run(kind, func(t *testing.T) {
			ladderWorlds(t, kind, nil, func(p *Proc) {
				freed, kept := p.StreamCreate(), p.StreamCreate()
				p.StreamFree(freed)
				s := p.StreamCreate()
				seen := make(map[fabric.EndpointID]bool)
				for _, st := range []*core.Stream{p.NullStream(), kept, s} {
					ep := p.vciFor(st).ep.ID()
					if seen[ep] {
						t.Errorf("rank %d: endpoint %d backs two live VCIs", p.Rank(), ep)
					}
					seen[ep] = true
					if got := p.World().Transport().RankOfEndpoint(ep); got != p.Rank() {
						t.Errorf("rank %d: RankOfEndpoint(%d) = %d", p.Rank(), ep, got)
					}
				}
				sc := p.CommWorld().StreamComm(s)
				peer := 1 - p.Rank()
				got := make([]byte, 100<<10)
				rreq := sc.IrecvBytes(got, peer, 0)
				sc.IsendBytes(payload(len(got), int64(p.Rank())), peer, 0).Wait()
				if st := rreq.Wait(); st.Err != nil || !equalBytes(got, payload(len(got), int64(peer))) {
					t.Errorf("rank %d: rendezvous on the new stream: %+v", p.Rank(), st)
				}
				p.StreamFree(kept)
				p.StreamFree(s)
			})
		})
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCommDupIsolation(t *testing.T) {
	run2(t, Config{}, func(p *Proc) {
		comm := p.CommWorld()
		dup := comm.Dup()
		if dup.Size() != comm.Size() || dup.Rank() != comm.Rank() {
			t.Error("dup shape wrong")
		}
		if p.Rank() == 0 {
			comm.SendBytes([]byte("a"), 1, 0)
			dup.SendBytes([]byte("b"), 1, 0)
		} else {
			// Receive from the dup first: contexts must not cross.
			buf := make([]byte, 1)
			dup.RecvBytes(buf, 0, 0)
			if buf[0] != 'b' {
				t.Errorf("dup got %q", buf)
			}
			comm.RecvBytes(buf, 0, 0)
			if buf[0] != 'a' {
				t.Errorf("world got %q", buf)
			}
		}
	})
}

func TestMultipleStreamsConcurrentTraffic(t *testing.T) {
	// Two threads per rank, each with its own stream comm, exchanging
	// concurrently — the paper's recipe for contention-free
	// multithreaded MPI (§3.1, §4.4).
	const perStream = 50
	run2(t, Config{ProcsPerNode: 1}, func(p *Proc) {
		comm := p.CommWorld()
		streams := []*core.Stream{p.StreamCreate(), p.StreamCreate()}
		comms := []*Comm{comm.StreamComm(streams[0]), comm.StreamComm(streams[1])}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(sc *Comm, s *core.Stream, lane int) {
				defer wg.Done()
				peer := 1 - p.Rank()
				for m := 0; m < perStream; m++ {
					out := []byte{byte(lane), byte(m)}
					in := make([]byte, 2)
					rreq := sc.IrecvBytes(in, peer, lane)
					sreq := sc.IsendBytes(out, peer, lane)
					for !sreq.IsComplete() || !rreq.IsComplete() {
						p.StreamProgress(s)
					}
					if in[0] != byte(lane) || in[1] != byte(m) {
						t.Errorf("lane %d msg %d: got %v", lane, m, in)
					}
				}
			}(comms[i], streams[i], i)
		}
		wg.Wait()
	})
}

func TestProgressThread(t *testing.T) {
	// A dedicated progress thread (paper §5.1) lets a blocking-free
	// main thread observe completion via pure queries.
	run2(t, Config{ProcsPerNode: 1}, func(p *Proc) {
		comm := p.CommWorld()
		stop := p.ProgressThread(nil)
		defer stop()
		if p.Rank() == 0 {
			comm.SendBytes(payload(8192, 7), 1, 0)
		} else {
			req := comm.IrecvBytes(make([]byte, 8192), 0, 0)
			// No explicit progress: the progress thread completes it.
			deadline := p.Wtime() + 5
			for !req.IsComplete() {
				if p.Wtime() > deadline {
					t.Error("progress thread never completed the request")
					return
				}
			}
		}
	})
}

func TestWorldRankMapping(t *testing.T) {
	run2(t, Config{Procs: 3}, func(p *Proc) {
		comm := p.CommWorld()
		for r := 0; r < comm.Size(); r++ {
			if comm.WorldRank(r) != r {
				t.Errorf("world rank of %d = %d", r, comm.WorldRank(r))
			}
		}
		if comm.Stream() != p.NullStream() {
			t.Error("world comm should use the NULL stream")
		}
	})
}
