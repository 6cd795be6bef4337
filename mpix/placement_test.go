package mpix_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/transport"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/mpix"
)

// A rendezvous chunk for a posted receive is written by the transport
// thread that reads it — the progress pass of any stream, the shm
// doorbell watcher, a tcp connection watcher — straight into the receive's
// buffer (direct placement). These tests pin what that may never do:
// write into a buffer whose receive has completed. The receive must
// complete exactly once whatever happens to the message halfway, and
// the completion callback overwrites the buffer, so a write after it is
// a reported race under -race.

const placeSize = 1 << 20 // 16 chunks of the default PipelineChunk

// placeWorld is a two-rank job on one real backend, rank 0 sending to
// rank 1, each rank with an enabled metrics registry: the receiver
// tells from <backend>.rx.placed how far the message got. The shm rings
// hold half a chunk, so that the sender can run at most that far ahead
// of the receiver and a stalled message is always mid-frame on shm.
//
// On shm a rank that can read its peer's memory takes a rendezvous
// message with one read instead (shm.rx.cma); spoil names the ranks
// whose probe record is spoiled (shm.Network.SpoilProbe), so that a
// peer cannot read them and their messages to it run over the rings.
type placeWorld struct {
	backend string
	worlds  []*mpix.World
	regs    []*mpix.MetricsRegistry
	kill    []func()
	shms    []*shm.Network // shm only
}

func newPlaceWorld(t *testing.T, backend string, spoil ...int) *placeWorld {
	t.Helper()
	const n = 2
	pw := &placeWorld{backend: backend}
	trs := make([]*mpix.TCPTransport, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		tr, err := mpix.NewTCPTransport(mpix.TCPConfig{
			Rank: r, WorldSize: n, DialTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("tcp transport rank %d: %v", r, err)
		}
		trs[r] = tr
		addrs[r] = tr.Addr()
	}
	dir := t.TempDir()
	for r := 0; r < n; r++ {
		trs[r].SetPeerAddrs(addrs)
		var tr transport.Transport = trs[r]
		kill := trs[r].Kill
		if backend == "shm" {
			sn, err := shm.New(shm.Config{
				Rank: r, WorldSize: n, Epoch: 17, Dir: dir, Peers: []int{1 - r},
				Cells: 8, ProbeInterval: 500 * time.Microsecond,
			})
			if err != nil {
				t.Fatalf("shm transport rank %d: %v", r, err)
			}
			if slices.Contains(spoil, r) {
				sn.SpoilProbe()
			}
			cn, err := composite.New(composite.Config{Rank: r, WorldSize: n, NodeOf: []int{0, 0}}, sn, trs[r])
			if err != nil {
				t.Fatalf("composite transport rank %d: %v", r, err)
			}
			tr, kill = cn, cn.Kill
			pw.shms = append(pw.shms, sn)
		}
		reg := mpix.NewMetrics()
		reg.Enable()
		pw.regs = append(pw.regs, reg)
		pw.kill = append(pw.kill, kill)
		pw.worlds = append(pw.worlds, mpix.NewWorld(mpix.Config{
			Procs: n, Rank: r, Transport: tr, Metrics: reg,
			// One chunk in flight: the sender moves the message one chunk
			// per progress pass it is granted, and no further.
			PipelineDepth: 1,
		}))
	}
	return pw
}

// counter reads one of rank's assembly counters, <backend>.rx.<what>.
func (pw *placeWorld) counter(rank int, what string) uint64 {
	return pw.regs[rank].Snapshot().Counter(pw.backend + ".rx." + what)
}

// pacedSend is the sender's side of a stalled message: post it, then
// make one progress pass per token received on steps, acknowledging
// each by closing it, until steps is closed. It returns the send.
func pacedSend(p *mpix.Proc, comm *mpix.Comm, steps <-chan chan struct{}) *mpix.Request {
	req := comm.IsendBytes(ownPattern(placeSize, 0), 1, 1)
	for ack := range steps {
		p.Progress()
		close(ack)
	}
	return req
}

// stallMidMessage is the receiver's side: it grants the sender one pass
// at a time until a chunk of req has been placed into its buffer, and
// fails if req completed meanwhile. After each sender pass it makes
// enough passes of its own to read whatever that one put on the wire
// (a tcp rank looks at a quiet socket on a widening cadence, but at
// least once every 64 passes), so that the sender is never more than a
// chunk ahead.
func (pw *placeWorld) stallMidMessage(p *mpix.Proc, req *mpix.Request, steps chan<- chan struct{}) error {
	for pw.counter(1, "placed") == 0 {
		ack := make(chan struct{})
		steps <- ack
		<-ack
		for i := 0; i < 64; i++ {
			p.Progress()
		}
	}
	if req.IsComplete() {
		return errors.New("the receive completed before the message was stalled")
	}
	return nil
}

// newCMAWorld is the shm placeWorld of a pair that reads each other's
// memory; on a host that refuses cross-memory reads it skips.
func newCMAWorld(t *testing.T) *placeWorld {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	pw := newPlaceWorld(t, "shm")
	if pw.shms[0].PeerReader(1) == nil || pw.shms[1].PeerReader(0) == nil {
		t.Skip("this host refuses cross-memory reads between the ranks: their rendezvous run over the rings")
	}
	return pw
}

// settleOnce waits for req and for its completion callback, and checks
// that the status carries want and that the callback ran exactly once.
func settleOnce(p *mpix.Proc, req *mpix.Request, fired *atomic.Int32, want error) error {
	st, err := req.WaitDeadline(20 * time.Second)
	if errors.Is(err, mpix.ErrTimedOut) {
		return errors.New("the request never completed")
	}
	if !errors.Is(st.Err, want) {
		return fmt.Errorf("status %+v, want %v", st, want)
	}
	for fired.Load() == 0 {
		p.Progress()
	}
	for i := 0; i < 64; i++ {
		p.Progress()
	}
	if n := fired.Load(); n != 1 {
		return fmt.Errorf("the request completed %d times", n)
	}
	return nil
}

// postScribbled posts the 1 MiB receive whose completion callback
// overwrites its buffer, and returns the buffer.
func postScribbled(comm *mpix.Comm, fired *atomic.Int32) (*mpix.Request, []byte) {
	buf := make([]byte, placeSize)
	req := comm.IrecvBytes(buf, 0, 1)
	req.OnComplete(func(mpix.Status) {
		scribble(buf)
		fired.Add(1)
	})
	return req, buf
}

// scribbled reports a receive buffer written after its completion: once
// nothing more of the message can arrive, it must still hold only the
// callback's bytes.
func scribbled(buf []byte) error {
	for i, b := range buf {
		if b != 0xEE {
			return fmt.Errorf("the receive buffer was written after its completion (byte %d)", i)
		}
	}
	return nil
}

// TestMatrixPlacedRecvKill: the sender dies with a posted 1 MiB receive
// mid-message — on shm with a chunk half in the rings and half never to
// come, so the frame under assembly holds the receive when the verdict
// arrives. The receive completes exactly once, with ErrProcFailed.
//
// The shm-cma rows kill one side of a rendezvous taken by a read of the
// sender's memory, between the RTS and the FIN: the sender, whose
// address space goes with it (an mmap'd send buffer made unreadable),
// and the receiver, whose FIN then never comes. The receive, or the
// send, completes exactly once with ErrProcFailed.
func TestMatrixPlacedRecvKill(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		pw := newPlaceWorld(t, backend, 0, 1)
		steps := make(chan chan struct{})
		// The victim never returns: like a SIGKILLed process, it just stops.
		go pw.worlds[0].Run(func(p *mpix.Proc) {
			pacedSend(p, p.CommWorld(), steps)
			select {}
		})
		var failure error
		func() {
			defer func() {
				if e := recover(); e != nil {
					failure = fmt.Errorf("receiver panicked: %v", e)
				}
			}()
			pw.worlds[1].Run(func(p *mpix.Proc) {
				var fired atomic.Int32
				req, buf := postScribbled(p.CommWorld(), &fired)
				if failure = pw.stallMidMessage(p, req, steps); failure != nil {
					return
				}
				pw.kill[0]()
				close(steps)
				if failure = settleOnce(p, req, &fired, mpix.ErrProcFailed); failure == nil {
					failure = scribbled(buf)
				}
			})
		}()
		if failure != nil {
			t.Fatal(failure)
		}
	})
	// A killed sender's memory and its alive lock go together; which of
	// the two the receiver sees first is a race, run here both ways: the
	// read of the vanished memory fails and the receiver fails the peer
	// itself, or the verdict comes first and the RTS is never read.
	for _, memoryFirst := range []bool{true, false} {
		name := "shm-cma/sender-lock-first"
		if memoryFirst {
			name = "shm-cma/sender-memory-first"
		}
		t.Run(name, func(t *testing.T) {
			pw := newCMAWorld(t)
			msg, unmap := mappedBuffer(t, placeSize)
			copy(msg, ownPattern(placeSize, 0))
			posted, sent := make(chan struct{}), make(chan struct{})
			go pw.worlds[0].Run(func(p *mpix.Proc) {
				<-posted
				p.CommWorld().IsendBytes(msg, 1, 1)
				close(sent)
				select {}
			})
			var failure error
			func() {
				defer func() {
					if e := recover(); e != nil {
						failure = fmt.Errorf("receiver panicked: %v", e)
					}
				}()
				pw.worlds[1].Run(func(p *mpix.Proc) {
					var fired atomic.Int32
					req, buf := postScribbled(p.CommWorld(), &fired)
					close(posted)
					// The RTS is out, and this rank has not read it: the
					// sender dies.
					<-sent
					if memoryFirst {
						unmap()
					} else {
						pw.kill[0]()
						unmap()
					}
					if failure = settleOnce(p, req, &fired, mpix.ErrProcFailed); failure == nil {
						failure = scribbled(buf)
					}
					if memoryFirst {
						if st := pw.shms[1].Stats(); st.PeersDown != 0 {
							failure = errors.New("the verdict came before the read of the vanished memory")
						}
						pw.kill[0]()
					}
				})
			}()
			if failure != nil {
				t.Fatal(failure)
			}
		})
	}
	t.Run("shm-cma/receiver", func(t *testing.T) {
		pw := newCMAWorld(t)
		// The victim never reads the RTS: like a SIGKILLed process, it just
		// stops.
		go pw.worlds[1].Run(func(p *mpix.Proc) { select {} })
		var failure error
		func() {
			defer func() {
				if e := recover(); e != nil {
					failure = fmt.Errorf("sender panicked: %v", e)
				}
			}()
			pw.worlds[0].Run(func(p *mpix.Proc) {
				buf := ownPattern(placeSize, 0)
				req := p.CommWorld().IsendBytes(buf, 1, 1)
				var fired atomic.Int32
				req.OnComplete(func(mpix.Status) {
					scribble(buf)
					fired.Add(1)
				})
				pw.kill[1]()
				failure = settleOnce(p, req, &fired, mpix.ErrProcFailed)
			})
		}()
		if failure != nil {
			t.Fatal(failure)
		}
	})
}

// TestMatrixPlacedRecvRevoke: the receiver revokes the communicator
// with its posted 1 MiB receive mid-message, then lets the sender finish
// — the rest of the message arrives for a receive that is no longer
// there. The receive completes exactly once, with ErrCommRevoked.
func TestMatrixPlacedRecvRevoke(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		pw := newPlaceWorld(t, backend, 0, 1)
		steps := make(chan chan struct{})
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := range pw.worlds {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					if e := recover(); e != nil {
						errs[r] = fmt.Errorf("rank %d panicked: %v", r, e)
					}
				}()
				pw.worlds[r].Run(func(p *mpix.Proc) {
					dup := p.CommWorld().Dup()
					if r == 0 {
						if st := pacedSend(p, dup, steps).Wait(); st.Err != nil && !errors.Is(st.Err, mpix.ErrCommRevoked) {
							errs[r] = fmt.Errorf("send: %v", st.Err)
						}
						p.CommWorld().Barrier()
						return
					}
					var fired atomic.Int32
					req, buf := postScribbled(dup, &fired)
					errs[r] = pw.stallMidMessage(p, req, steps)
					dup.Revoke()
					close(steps)
					if errs[r] == nil {
						errs[r] = settleOnce(p, req, &fired, mpix.ErrCommRevoked)
					}
					// The barrier's frames follow the rest of the message
					// on the same link: all of it has arrived now.
					p.CommWorld().Barrier()
					if errs[r] == nil {
						errs[r] = scribbled(buf)
					}
				})
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	})
}

// placedExchange sends one 1 MiB message from rank 0 to a receive
// rank 1 posted before it, and checks the bytes.
func (pw *placeWorld) placedExchange() error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range pw.worlds {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, e)
				}
			}()
			pw.worlds[r].Run(func(p *mpix.Proc) {
				comm := p.CommWorld()
				if r == 0 {
					comm.Barrier()
					comm.SendBytes(ownPattern(placeSize, 0), 1, 1)
					return
				}
				buf := make([]byte, placeSize)
				req := comm.IrecvBytes(buf, 0, 1)
				comm.Barrier()
				if st := req.Wait(); st.Err != nil || st.Bytes != placeSize {
					errs[r] = fmt.Errorf("recv %+v", st)
				} else if !bytes.Equal(buf, ownPattern(placeSize, 0)) {
					errs[r] = errors.New("the received message differs from the one sent")
				}
			})
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// wantRx is what the receiver's assembly and cross-memory counters read
// after one 1 MiB message.
type wantRx struct{ placed, staged, cma uint64 }

func (pw *placeWorld) checkRx(want wantRx) error {
	got := wantRx{pw.counter(1, "placed"), pw.counter(1, "staged"), 0}
	if pw.backend == "shm" {
		got.cma = pw.counter(1, "cma")
	}
	if got != want {
		return fmt.Errorf("%s.rx placed/staged/cma %+v, want %+v", pw.backend, got, want)
	}
	return nil
}

// TestMatrixPlacedRecvCounters: a 1 MiB message for a posted receive
// arrives without a copy on the receiver's side beyond the one into its
// buffer. On tcp every chunk is placed — <backend>.rx.placed reads 16 on
// the receiver and <backend>.rx.staged 0; on shm the receiver reads the
// message out of the sender's memory — shm.rx.cma reads 1 and no chunk
// crosses the rings (a host that refuses cross-memory reads places 16
// chunks, as tcp). The bytes are the message.
func TestMatrixPlacedRecvCounters(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		pw := newPlaceWorld(t, backend)
		want := wantRx{placed: 16}
		if backend == "shm" && pw.shms[1].PeerReader(0) != nil {
			want = wantRx{cma: 1}
		}
		if err := pw.placedExchange(); err != nil {
			t.Fatal(err)
		}
		if err := pw.checkRx(want); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMatrixPlacedRecvFallback: the ring path a pair takes when the
// receiver cannot read the sender's memory, forced by spoiled probe
// records — 16 placed chunks, no cross-memory read, the bytes intact.
// "refused": neither rank can read the other, so the sender does not
// advertise its buffer. "asymmetric": only the sender's record is
// spoiled — it reads the receiver and advertises, the receiver cannot
// and answers the RTS with a CTS.
func TestMatrixPlacedRecvFallback(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	t.Run("refused", func(t *testing.T) {
		pw := newPlaceWorld(t, "shm", 0, 1)
		if pw.shms[0].PeerReader(1) != nil || pw.shms[1].PeerReader(0) != nil {
			t.Fatal("a spoiled probe record passed the probe")
		}
		if err := pw.placedExchange(); err != nil {
			t.Fatal(err)
		}
		if err := pw.checkRx(wantRx{placed: 16}); err != nil {
			t.Fatal(err)
		}
		if st := pw.shms[1].Stats(); st.CMAReads != 0 || st.CMARefused != 1 {
			t.Fatalf("receiver: %d cross-memory reads, %d refused peers; want 0 and 1", st.CMAReads, st.CMARefused)
		}
	})
	t.Run("asymmetric", func(t *testing.T) {
		pw := newPlaceWorld(t, "shm", 0)
		if pw.shms[0].PeerReader(1) == nil {
			t.Skip("this host refuses cross-memory reads: the sender cannot advertise")
		}
		if pw.shms[1].PeerReader(0) != nil {
			t.Fatal("a spoiled probe record passed the probe")
		}
		if err := pw.placedExchange(); err != nil {
			t.Fatal(err)
		}
		if err := pw.checkRx(wantRx{placed: 16}); err != nil {
			t.Fatal(err)
		}
	})
}
