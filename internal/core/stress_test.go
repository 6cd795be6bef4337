package core_test

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/core"
	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
)

// The no-lost-wake-up stress across a real transport: the consumer is a
// link bound to a stream (waiter) blocked in Await, the
// producer another rank's link. These tests live beside the wait ladder
// rather than beside the transports because they need its timer bound
// out of the way (SetParkCap): with a two-second bound, one park that
// ends on its timer is one lost wake-up, exactly.

// waiter binds a link to a progress stream of its own the way the MPI
// runtime binds one to a VCI's stream: a netmod that polls and drains
// the link and parks through its Parking, attached to the stream, and
// the stream's work counter bound to the link. It is what a blocked
// rank looks like to a transport.
type waiter struct {
	stream *core.Stream
	// jitter, when positive, makes Parking spin a random number of
	// iterations below it between being entered (ParkingFor) and
	// announcing the park to the link — a slow waiter, so that a
	// producer released by ParkingFor publishes before, around and
	// after the announcement.
	jitter int
	rng    *rand.Rand

	link nic.Link
	reg  *metrics.Registry

	frames     atomic.Int64
	verdicts   atomic.Int64
	parkingFor atomic.Int64

	rq []fabric.Packet
	cq []nic.CQE
}

// newWaiter wires l to a fresh engine's default stream. Call before
// traffic flows (it binds the link's work counter).
func newWaiter(l nic.Link) *waiter {
	w := &waiter{link: l, reg: metrics.New(), rng: rand.New(rand.NewSource(2)), rq: make([]fabric.Packet, 0, 64), cq: make([]nic.CQE, 0, 64)}
	w.reg.Enable()
	eng := core.NewEngine(nil)
	eng.UseMetrics(w.reg, "w")
	w.stream = eng.Default()
	l.BindWork(w.stream.AttachNetmod(w))
	return w
}

// Parking records that the waiter is parking for its next frame, then
// announces the park to the link (core.Netmod).
func (w *waiter) Parking() bool {
	w.parkingFor.Store(w.frames.Load() + 1)
	if w.jitter > 0 {
		for spin := w.rng.Intn(w.jitter); spin > 0; spin-- {
			_ = w.frames.Load()
		}
	}
	return w.link.Parking()
}

// Poll ingests, then drains both queues (core.Netmod).
func (w *waiter) Poll() bool {
	made := false
	if w.link.PollRecv() {
		made = true
	}
	w.cq = w.link.DrainCQ(w.cq)
	for _, c := range w.cq {
		if _, ok := c.Token.(nic.PeerDown); ok {
			w.verdicts.Add(1)
		}
	}
	w.rq = w.link.DrainRQ(w.rq)
	w.frames.Add(int64(len(w.rq)))
	return made || len(w.cq) > 0 || len(w.rq) > 0
}

// Pending and Queued report undrained entries (core.Netmod).
func (w *waiter) Pending() int { return w.Queued() }
func (w *waiter) Queued() int  { return w.link.QueuedCQ() + w.link.QueuedRQ() }

// Frames and Verdicts report what the netmod has drained so far.
func (w *waiter) Frames() int64   { return w.frames.Load() }
func (w *waiter) Verdicts() int64 { return w.verdicts.Load() }

// ParkingFor returns n once the wait ladder has entered Parking
// with n-1 frames drained: the waiter is parking, or parked, for the
// n-th frame.
func (w *waiter) ParkingFor() int64 { return w.parkingFor.Load() }

// Counter reads one of the stream's wait-ladder counters ("parks",
// "early_wakes", …).
func (w *waiter) Counter(name string) uint64 {
	return w.reg.Snapshot().Counter("w.core.wait." + name)
}

// Await blocks in the stream's wait ladder until cond holds, failing
// the test at the deadline.
func (w *waiter) Await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	err := w.stream.Await(cond, func() error {
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// parkWakeStress runs rounds single-frame deliveries. Each round the
// consumer waits for the next frame; the producer holds it back until
// the consumer has entered Parking for that frame — it is then
// somewhere between announcing itself and the end of its sleep — and
// publishes after a random short delay, so the frame lands before the
// announcement, between announcement and re-check, before the sleep or
// during it.
// post publishes one frame toward the consumer and pushes it onto the
// wire.
func parkWakeStress(t *testing.T, cons *waiter, post func() error, rounds int) {
	t.Helper()
	defer core.SetParkCap(2 * time.Second)()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		rng := rand.New(rand.NewSource(1))
		for i := int64(1); i <= int64(rounds); i++ {
			for cons.ParkingFor() != i {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			for spin := rng.Intn(400); spin > 0; spin-- {
				_ = cons.ParkingFor()
			}
			if err := post(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := int64(1); i <= int64(rounds); i++ {
		cons.Await(t, fmt.Sprintf("frame %d", i), func() bool { return cons.Frames() >= i })
	}
	parks, early := cons.Counter("parks"), cons.Counter("early_wakes")
	t.Logf("%d rounds: %d parks, %d ended early, %d pokes", rounds, parks, early, cons.Counter("pokes"))
	if parks < uint64(rounds) {
		t.Fatalf("%d parks in %d rounds: the consumer did not park every round", parks, rounds)
	}
	if parks != early {
		t.Errorf("%d of %d parks slept out their timer with a frame published", parks-early, parks)
	}
}

// parkRounds overrides the round count of the stress tests; the issue's
// full count is -park.rounds=100000. The defaults are sized by what a
// round costs on a small shared host — a cross-CPU wake-up of an idle
// thread, 0.2 to 1.3 ms there — not by what the handshake needs.
var parkRounds = flag.Int("park.rounds", 0, "rounds of the park/wake stress tests (0: per-test default)")

func stressRounds(def int) int {
	switch {
	case *parkRounds > 0:
		return *parkRounds
	case testing.Short():
		return def / 10
	}
	return def
}

// stressJitter is the consumer-side delay bound (waiter.jitter) under
// which about a quarter of the rounds publish before the consumer's
// announcement and the rest after it.
const stressJitter = 40000

// stressWorld builds one composite rank per entry of nodes (shm between
// ranks that share a node, tcp loopback between the others) and returns
// every rank's link and transport. Start the transports once the
// consumer's work counter is bound: inbound delivery bumps it.
func stressWorld(t *testing.T, nodes []int) (links []nic.Link, nets []*composite.Network) {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	n, dir := len(nodes), t.TempDir()
	tcps, addrs := make([]*tcp.Network, n), make([]string, n)
	for r := range tcps {
		tn, err := tcp.New(tcp.Config{Rank: r, WorldSize: n, Epoch: 31})
		if err != nil {
			t.Fatal(err)
		}
		tcps[r], addrs[r] = tn, tn.Addr()
	}
	links, nets = make([]nic.Link, n), make([]*composite.Network, n)
	for r := range links {
		tcps[r].SetPeerAddrs(addrs)
		var peers []int
		for p := range nodes {
			if p != r && nodes[p] == nodes[r] {
				peers = append(peers, p)
			}
		}
		var local composite.Leg
		if len(peers) > 0 {
			sn, err := shm.New(shm.Config{Rank: r, WorldSize: n, Epoch: 31, Dir: dir, Peers: peers})
			if err != nil {
				t.Fatal(err)
			}
			local = sn
		}
		cn, err := composite.New(composite.Config{Rank: r, WorldSize: n, NodeOf: nodes}, local, tcps[r])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cn.Close() })
		cn.SetCodec(nic.ByteCodec{})
		l, err := cn.AddLink(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		links[r], nets[r] = l, cn
	}
	return links, nets
}

func startAll(t *testing.T, nets []*composite.Network) {
	t.Helper()
	for _, cn := range nets {
		if err := cn.Start(); err != nil {
			t.Fatal(err)
		}
	}
}

// poster returns the producer's post: one inline frame from src to dst,
// flushed until the transport holds nothing of it back.
func poster(src, dst nic.Link) func() error {
	msg := []byte("stress")
	return func() error {
		if err := src.PostSendInline(dst.ID(), msg, len(msg)); err != nil {
			return err
		}
		src.Flush() // at least once: the shm leg settles its doorbell debt here
		for src.PendingTx() > 0 {
			src.Flush()
			runtime.Gosched() // the first tcp frame waits for its dial
		}
		return nil
	}
}

// TestParkWakeStressShm: the frame crosses the mmap rings. The wake-up
// is the cross-mapping handshake — Link.Parking zeroes the poll stamp
// and re-checks the rings, the producer publishes and reads the stamp —
// then doorbell → watcher → work counter → poke.
func TestParkWakeStressShm(t *testing.T) {
	links, nets := stressWorld(t, []int{0, 0})
	cons := newWaiter(links[1])
	cons.jitter = stressJitter
	startAll(t, nets)
	parkWakeStress(t, cons, poster(links[0], links[1]), stressRounds(3000))
}

// TestParkWakeStressCompositeTCPLeg: the consumer has an shm leg (rank
// 1 shares its node) but the frame arrives on the tcp leg, whose
// connection watcher bumps the same work counter: the park must end
// for it as promptly as for a doorbell, not after its timer.
func TestParkWakeStressCompositeTCPLeg(t *testing.T) {
	links, nets := stressWorld(t, []int{0, 0, 1})
	cons := newWaiter(links[0])
	cons.jitter = stressJitter
	startAll(t, nets)
	parkWakeStress(t, cons, poster(links[2], links[0]), stressRounds(1000))
}

// TestParkedWaiterWokenByVerdict: a rank blocked on a peer that dies is
// parked by the time the transport reaches its verdict. The PeerDown
// CQE is pushed by the goroutine that watched the lost connection, not
// by the waiter's own poll, so it has to poke: with the
// timer out of the way the wait returns only if it does.
func TestParkedWaiterWokenByVerdict(t *testing.T) {
	defer core.SetParkCap(10 * time.Second)()
	links, nets := stressWorld(t, []int{0, 0, 1})
	cons := newWaiter(links[0])
	startAll(t, nets)
	// One frame first, so that rank 0 holds a connection from rank 2 to
	// lose.
	if err := poster(links[2], links[0])(); err != nil {
		t.Fatal(err)
	}
	cons.Await(t, "the first frame", func() bool { return cons.Frames() == 1 })
	parks0, early0 := cons.Counter("parks"), cons.Counter("early_wakes")
	if parks0 != early0 {
		t.Errorf("first frame: %d parks, %d ended early", parks0, early0)
	}
	go func() {
		for cons.ParkingFor() != 2 {
			runtime.Gosched()
		}
		nets[2].Kill()
	}()
	cons.Await(t, "the verdict on rank 2", func() bool { return cons.Verdicts() > 0 })
	parks, early := cons.Counter("parks")-parks0, cons.Counter("early_wakes")-early0
	if parks == 0 || parks != early {
		t.Errorf("%d parks, %d ended early: the verdict must end a park, and nothing else may", parks, early)
	}
}
