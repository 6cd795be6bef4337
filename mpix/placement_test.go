package mpix_test

import (
	"bytes"
	"errors"
	"fmt"
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
// doorbell watcher, the tcp drain pool — straight into the receive's
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
type placeWorld struct {
	backend string
	worlds  []*mpix.World
	regs    []*mpix.MetricsRegistry
	kill    []func()
}

func newPlaceWorld(t *testing.T, backend string) *placeWorld {
	t.Helper()
	const n = 2
	pw := &placeWorld{backend: backend}
	trs := make([]*mpix.TCPTransport, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		tr, err := mpix.NewTCPTransport(mpix.TCPConfig{
			Rank: r, WorldSize: n, DialTimeout: 200 * time.Millisecond, RedialBackoff: 5 * time.Millisecond,
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
			cn, err := composite.New(composite.Config{Rank: r, WorldSize: n, NodeOf: []int{0, 0}}, sn, trs[r])
			if err != nil {
				t.Fatalf("composite transport rank %d: %v", r, err)
			}
			tr, kill = cn, cn.Kill
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

// settleOnce waits for req and for its completion callback, and checks
// that the status carries want and that the callback ran exactly once.
func settleOnce(p *mpix.Proc, req *mpix.Request, fired *atomic.Int32, want error) error {
	st, err := req.WaitDeadline(20 * time.Second)
	if errors.Is(err, mpix.ErrTimedOut) {
		return errors.New("the receive never completed")
	}
	if !errors.Is(st.Err, want) {
		return fmt.Errorf("receive status %+v, want %v", st, want)
	}
	for fired.Load() == 0 {
		p.Progress()
	}
	for i := 0; i < 64; i++ {
		p.Progress()
	}
	if n := fired.Load(); n != 1 {
		return fmt.Errorf("the receive completed %d times", n)
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
func TestMatrixPlacedRecvKill(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		pw := newPlaceWorld(t, backend)
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
}

// TestMatrixPlacedRecvRevoke: the receiver revokes the communicator
// with its posted 1 MiB receive mid-message, then lets the sender finish
// — the rest of the message arrives for a receive that is no longer
// there. The receive completes exactly once, with ErrCommRevoked.
func TestMatrixPlacedRecvRevoke(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		pw := newPlaceWorld(t, backend)
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

// TestMatrixPlacedRecvCounters: every chunk of a 1 MiB message for a
// posted receive is placed — <backend>.rx.placed reads 16 on the
// receiver and <backend>.rx.staged 0 — and the bytes are the message.
func TestMatrixPlacedRecvCounters(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		pw := newPlaceWorld(t, backend)
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
						errs[r] = errors.New("the placed message differs from the one sent")
					}
				})
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if placed, staged := pw.counter(1, "placed"), pw.counter(1, "staged"); placed != 16 || staged != 0 {
			t.Fatalf("%s.rx.placed %d, %s.rx.staged %d; want 16 and 0", backend, placed, backend, staged)
		}
	})
}
