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

// The send buffer belongs to the library from Isend until the request
// completes, and to the caller from that instant on: over a byte
// transport a contiguous send is read straight out of it (no private
// copy), so these tests overwrite it the moment completion is reported
// and check that nobody was still reading — the receiver by comparing
// bytes, every internal reader by running under -race (make race-tcp).

// ownSizes spans the send protocols: buffered inline (encoded at post),
// eager below and above nic.BulkMin (copied into the out-queue at post;
// borrowed by it until the CQE), rendezvous (chunks borrowed until
// theirs; on shm the whole buffer advertised to a receiver that reads
// it, until its FIN).
var ownSizes = []int{64, 2 << 10, 8 << 10, 48 << 10, 200 << 10, 1 << 20}

func ownPattern(size, round int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i*7 + size + round*13)
	}
	return b
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// TestMatrixSendBufferOwnership: rank 0 sends every size with the
// receive already posted and with the message arriving unexpected,
// observing completion through Wait and through OnComplete, and
// overwrites the buffer at once; rank 1 must see the original bytes.
func TestMatrixSendBufferOwnership(t *testing.T) {
	runMatrix(t, 2, func(p *mpix.Proc) {
		comm := p.CommWorld()
		round := 0
		for _, posted := range []bool{true, false} {
			for _, callback := range []bool{false, true} {
				for _, size := range ownSizes {
					round++
					tag := round
					if p.Rank() == 1 {
						got := make([]byte, size)
						var req *mpix.Request
						if posted {
							req = comm.IrecvBytes(got, 0, tag)
						}
						comm.Barrier() // posted: before the send; unexpected: after it arrived
						comm.Barrier()
						if !posted {
							req = comm.IrecvBytes(got, 0, tag)
						}
						if st := req.Wait(); st.Err != nil || st.Bytes != size {
							panic(fmt.Sprintf("size %d posted=%v: recv %+v", size, posted, st))
						}
						if !bytes.Equal(got, ownPattern(size, round)) {
							panic(fmt.Sprintf("size %d posted=%v callback=%v: receiver saw the sender's overwrite",
								size, posted, callback))
						}
						continue
					}
					buf := ownPattern(size, round)
					if posted {
						comm.Barrier()
					}
					req := comm.IsendBytes(buf, 1, tag)
					var fired atomic.Int32
					if callback {
						req.OnComplete(func(st mpix.Status) {
							if st.Err != nil {
								panic(fmt.Sprintf("size %d: send %v", size, st.Err))
							}
							scribble(buf)
							fired.Add(1)
						})
					}
					if !posted {
						// The barrier's frames follow the message on the
						// same link, so it is queued unexpected (or its RTS
						// is) before rank 1 posts the receive.
						comm.Barrier()
					}
					comm.Barrier()
					if st := req.Wait(); st.Err != nil {
						panic(fmt.Sprintf("size %d: send %v", size, st.Err))
					}
					if callback {
						for fired.Load() == 0 {
							p.Progress()
						}
					} else {
						scribble(buf)
					}
				}
			}
		}
		comm.Barrier()
	})
}

// ownWorld is a two-rank job on one real backend with the transports
// kept, so a test can kill a rank.
type ownWorld struct {
	worlds []*mpix.World
	kill   []func()
}

func newOwnWorld(t *testing.T, backend string) *ownWorld {
	t.Helper()
	const n = 2
	ow := &ownWorld{}
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
				Rank: r, WorldSize: n, Epoch: 13, Dir: dir, Peers: []int{1 - r},
				ProbeInterval: 500 * time.Microsecond,
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
		ow.kill = append(ow.kill, kill)
		ow.worlds = append(ow.worlds, mpix.NewWorld(mpix.WithRanks(n), mpix.WithRank(r), mpix.WithTransport(tr)))
	}
	return ow
}

func ownBackends(t *testing.T, fn func(t *testing.T, backend string)) {
	t.Run("tcp", func(t *testing.T) { fn(t, "tcp") })
	t.Run("shm", func(t *testing.T) {
		if !shm.Supported() {
			t.Skip("shm transport not supported on this platform")
		}
		fn(t, "shm")
	})
}

// ownBurst posts a burst of sends the link has to hold on to — more
// eager messages of borrowable size than a ring (or a dialing peer's
// queue) lets through while the peer is not draining — plus one
// rendezvous send behind them, and arranges for every buffer to be
// overwritten from its completion callback. fired counts callbacks per
// request: exactly once each is the contract.
func ownBurst(comm *mpix.Comm, peer int) (reqs []*mpix.Request, fired []atomic.Int32) {
	const eager, count = 48 << 10, 64 // 3 MiB against a 1 MiB ring
	sizes := make([]int, count, count+1)
	for i := range sizes {
		sizes[i] = eager
	}
	sizes = append(sizes, 1<<20)
	fired = make([]atomic.Int32, len(sizes))
	for i, size := range sizes {
		i, buf := i, ownPattern(size, i)
		req := comm.IsendBytes(buf, peer, i)
		req.OnComplete(func(mpix.Status) {
			scribble(buf)
			fired[i].Add(1)
		})
		reqs = append(reqs, req)
	}
	return reqs, fired
}

// TestMatrixSendBufferKill: borrowed segments and an un-CTS'd
// rendezvous are queued toward a peer that is dead. On shm the burst
// overflows the ring of a peer that is not draining and the peer is
// killed under it; on tcp, where the kernel takes whatever is written,
// the peer is killed first and the burst queues behind a dial that can
// only fail. Either way the verdict empties the queue. Every request
// completes exactly once, with a peer-failure error or — for frames the
// ring had already taken — cleanly; the buffers are overwritten at
// completion, so a queue that read one past it is a reported race.
func TestMatrixSendBufferKill(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		ow := newOwnWorld(t, backend)
		posted := make(chan struct{})
		park := make(chan struct{})
		if backend == "tcp" {
			ow.kill[1]()
		}
		// The victim never drains: it parks until after the kill (the
		// goroutine outlives its transport, like a SIGKILLed process).
		go ow.worlds[1].Run(func(p *mpix.Proc) { <-park })
		var failure error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					failure = fmt.Errorf("survivor panicked: %v", e)
				}
			}()
			ow.worlds[0].Run(func(p *mpix.Proc) {
				reqs, fired := ownBurst(p.CommWorld(), 1)
				close(posted)
				failed := 0
				for i, req := range reqs {
					st, err := req.WaitDeadline(20 * time.Second)
					if errors.Is(err, mpix.ErrTimedOut) {
						failure = fmt.Errorf("request %d never completed", i)
						return
					}
					if st.Err != nil {
						if !errors.Is(st.Err, mpix.ErrProcFailed) && !errors.Is(st.Err, mpix.ErrLinkDown) {
							failure = fmt.Errorf("request %d: %v, want a peer-failure error", i, st.Err)
							return
						}
						failed++
					}
				}
				for i := range fired {
					for fired[i].Load() == 0 {
						p.Progress()
					}
				}
				p.Progress()
				for i := range fired {
					if n := fired[i].Load(); n != 1 {
						failure = fmt.Errorf("request %d completed %d times", i, n)
						return
					}
				}
				if failed == 0 {
					failure = errors.New("no request failed: nothing was queued when the peer died")
				}
			})
		}()
		<-posted
		if backend != "tcp" {
			ow.kill[1]()
		}
		close(park)
		wg.Wait()
		if failure != nil {
			t.Fatal(failure)
		}
	})
}

// TestMatrixSendBufferRevoke: the communicator is revoked while the
// same burst is queued toward a peer that is not draining. Revocation
// aborts what has not started (the rendezvous awaiting its CTS) and
// lets in-flight eager frames finish; either way every request
// completes exactly once and its buffer is free at that instant.
func TestMatrixSendBufferRevoke(t *testing.T) {
	ownBackends(t, func(t *testing.T, backend string) {
		ow := newOwnWorld(t, backend)
		revoked := make(chan struct{})
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := range ow.worlds {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					if e := recover(); e != nil {
						errs[r] = fmt.Errorf("rank %d panicked: %v", r, e)
					}
				}()
				ow.worlds[r].Run(func(p *mpix.Proc) {
					dup := p.CommWorld().Dup()
					if r == 1 {
						<-revoked // not draining while the burst queues up
						for !dup.Revoked() {
							p.Progress()
						}
						p.CommWorld().Barrier()
						return
					}
					reqs, fired := ownBurst(dup, 1)
					dup.Revoke()
					close(revoked)
					for i, req := range reqs {
						st, err := req.WaitDeadline(20 * time.Second)
						if errors.Is(err, mpix.ErrTimedOut) {
							errs[r] = fmt.Errorf("request %d never completed", i)
							return
						}
						if st.Err != nil && !errors.Is(st.Err, mpix.ErrCommRevoked) {
							errs[r] = fmt.Errorf("request %d: %v", i, st.Err)
							return
						}
					}
					if st := reqs[len(reqs)-1].Status(); !errors.Is(st.Err, mpix.ErrCommRevoked) {
						errs[r] = fmt.Errorf("rendezvous awaiting its CTS: %+v, want ErrCommRevoked", st)
						return
					}
					for i := range fired {
						for fired[i].Load() == 0 {
							p.Progress()
						}
					}
					p.Progress()
					for i := range fired {
						if n := fired[i].Load(); n != 1 {
							errs[r] = fmt.Errorf("request %d completed %d times", i, n)
							return
						}
					}
					p.CommWorld().Barrier()
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
	t.Run("shm-advertised", testRevokeAdvertised)
	t.Run("shm-advertised-late", testRevokeAdvertisedLate)
}

// testRevokeAdvertised: a 1 MiB send whose buffer was advertised to a
// receiver that can read it is revoked before the receiver matches it.
// The receiver may be reading the buffer at any moment until it answers,
// so the send waits for that answer — the FIN of a receiver that drops
// the message on its own revocation sweep — and completes exactly once,
// with ErrCommRevoked, never before.
func testRevokeAdvertised(t *testing.T) {
	pw := newCMAWorld(t)
	release := make(chan struct{})
	var released atomic.Bool
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
				if r == 1 {
					<-release // not matching, not answering
					for !dup.Revoked() {
						p.Progress()
					}
					p.CommWorld().Barrier()
					return
				}
				buf := ownPattern(placeSize, 0)
				req := dup.IsendBytes(buf, 1, 1)
				var fired atomic.Int32
				req.OnComplete(func(st mpix.Status) {
					if !released.Load() {
						errs[r] = fmt.Errorf("the advertised send completed (%+v) before the receiver answered", st)
					}
					scribble(buf)
					fired.Add(1)
				})
				dup.Revoke()
				for i := 0; i < 1000; i++ {
					p.Progress()
				}
				released.Store(true)
				close(release)
				if err := settleOnce(p, req, &fired, mpix.ErrCommRevoked); err != nil && errs[r] == nil {
					errs[r] = err
				}
				p.CommWorld().Barrier()
			})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// testRevokeAdvertisedLate: the receiver revokes first, and the sender
// advertises a 1 MiB send before it has heard of the revocation. The RTS
// reaches a communicator that is already revoked and already swept, so
// nothing will ever match it; the receiver answers it on arrival, and the
// send completes exactly once with ErrCommRevoked instead of waiting for
// an answer forever.
func testRevokeAdvertisedLate(t *testing.T) {
	pw := newCMAWorld(t)
	revoked := make(chan struct{})
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
				if r == 1 {
					dup.Revoke()
					close(revoked)
					p.CommWorld().Barrier()
					return
				}
				<-revoked // the revocation is on its way; not yet handled here
				buf := ownPattern(placeSize, 0)
				req := dup.IsendBytes(buf, 1, 1)
				var fired atomic.Int32
				req.OnComplete(func(mpix.Status) {
					scribble(buf)
					fired.Add(1)
				})
				if err := settleOnce(p, req, &fired, mpix.ErrCommRevoked); err != nil {
					errs[r] = err
				}
				p.CommWorld().Barrier()
			})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
