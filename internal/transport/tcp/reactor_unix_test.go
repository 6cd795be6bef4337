//go:build unix

package tcp

import (
	"bytes"
	"fmt"
	"math/bits"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/transport/transporttest"
)

// countedConn is a TCP connection whose non-blocking reads are counted:
// the reactor reads through RawConn.Control and through nothing else.
type countedConn struct {
	*net.TCPConn
	reads *atomic.Int64
}

func (c countedConn) SyscallConn() (syscall.RawConn, error) {
	rc, err := c.TCPConn.SyscallConn()
	return countedRaw{rc, c.reads}, err
}

type countedRaw struct {
	syscall.RawConn
	reads *atomic.Int64
}

func (r countedRaw) Control(f func(uintptr)) error {
	r.reads.Add(1)
	return r.RawConn.Control(f)
}

// probeRig is one rank's transport with one inbound connection put
// into its reactor by hand and no watcher behind it: the test plays
// the watcher (markReady) and the peer (writes on the other end), so
// every read the reactor issues is the polls' own.
type probeRig struct {
	t     testing.TB
	n     *Network
	l     *Link
	cs    *connState
	peer  net.Conn
	raw   syscall.RawConn // the uncounted descriptor, for arrived
	reads atomic.Int64
}

func newProbeRig(t testing.TB) *probeRig {
	t.Helper()
	r := &probeRig{t: t}
	n, err := New(Config{Rank: 0, WorldSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	n.SetCodec(nic.ByteCodec{})
	li, err := n.AddLink(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.n, r.l = n, li.(*Link)
	t.Cleanup(func() { n.Close() })
	var tc *net.TCPConn
	r.cs, r.peer, tc = r.addConn()
	if r.raw, err = tc.SyscallConn(); err != nil {
		t.Fatal(err)
	}
	return r
}

// addConn puts one more silent inbound connection into the reactor.
func (r *probeRig) addConn() (*connState, net.Conn, *net.TCPConn) {
	r.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		r.t.Fatal(err)
	}
	server, err := ln.Accept()
	if err != nil {
		r.t.Fatal(err)
	}
	tc := server.(*net.TCPConn)
	cs := newConnState(r.n, countedConn{tc, &r.reads}, 1)
	if cs.nb == nil {
		r.t.Fatal("no raw descriptor on a TCP connection")
	}
	r.n.mu.Lock()
	r.n.conns[cs] = struct{}{}
	r.n.storeConnTabLocked()
	r.n.mu.Unlock()
	r.t.Cleanup(func() {
		r.n.untrack(cs)
		cs.release()
		server.Close()
		peer.Close()
	})
	return cs, peer, tc
}

// send writes b on the peer's end and returns once the receiving
// socket has it.
func (r *probeRig) send(b []byte) {
	r.t.Helper()
	if _, err := r.peer.Write(b); err != nil {
		r.t.Fatal(err)
	}
	var scratch [1]byte
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		var ok bool
		r.raw.Control(func(fd uintptr) { ok = readable(int(fd), scratch[:]) })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatal("bytes never reached the receiving socket")
		}
	}
}

// quiet polls the silent connection k times.
func (r *probeRig) quiet(k int) {
	for i := 0; i < k; i++ {
		if r.l.PollRecv() {
			r.t.Fatal("a poll of a silent connection delivered something")
		}
	}
}

// TestProbeCadenceSilentConn: looking at a connection nobody writes to
// costs a system call on the 1st look, on the look 1, 2, 4, 8 … looks
// after that one and on every 64th, and nothing but atomics on the
// others.
func TestProbeCadenceSilentConn(t *testing.T) {
	r := newProbeRig(t)
	var probed []int
	for look := 1; look <= 40; look++ {
		before := r.reads.Load()
		r.quiet(1)
		if r.reads.Load() != before {
			probed = append(probed, look)
		}
	}
	if want := []int{1, 2, 3, 5, 9, 17, 33}; !slices.Equal(probed, want) {
		t.Errorf("the first 40 looks probed on %v, want %v", probed, want)
	}
	const polls = 1000
	r.quiet(polls - 40)
	got := r.reads.Load()
	if most := int64(bits.Len(polls-1) + polls/probeEvery + 1); got > most {
		t.Errorf("%d polls of a silent connection issued %d reads, want at most %d", polls, got, most)
	}
	if least := int64(polls / probeEvery); got < least {
		t.Errorf("%d polls issued %d reads, want at least one every %d: %d", polls, got, probeEvery, least)
	}
	if s := r.n.Stats(); s.Probes != got || s.ProbeHits != 0 {
		t.Errorf("stats count %d probes and %d hits for %d reads that found nothing", s.Probes, s.ProbeHits, got)
	}
}

// TestProbeFollowsBytesNotFrames: a read that returns bytes restarts
// the cadence even when no frame completes, so a message arriving in
// pieces is looked for on every poll until it is whole. (Restarting on
// frames instead left the tail of a 64 KiB chunk to the widening gaps.)
func TestProbeFollowsBytesNotFrames(t *testing.T) {
	r := newProbeRig(t)
	body := bytes.Repeat([]byte{0xA5}, 300)
	wire := wireFrame(r.l.ID(), r.n.EndpointOf(1, 0), body)
	r.quiet(100) // the next cadenced probe is the 128th look
	r.send(wire[:50])
	for looks := 0; r.n.Stats().ProbeHits == 0; looks++ {
		if looks > probeEvery {
			t.Fatalf("the first piece was not found within %d polls", probeEvery)
		}
		if r.l.PollRecv() {
			t.Fatal("a partial frame was delivered")
		}
	}
	for _, cut := range [][2]int{{50, 51}, {51, 200}, {200, len(wire)}} {
		hits, reads := r.n.Stats().ProbeHits, r.reads.Load()
		r.send(wire[cut[0]:cut[1]])
		made := r.l.PollRecv()
		if r.n.Stats().ProbeHits != hits+1 {
			t.Fatalf("the poll after bytes [%d:%d) arrived did not probe (reads %d → %d)",
				cut[0], cut[1], reads, r.reads.Load())
		}
		if whole := cut[1] == len(wire); made != whole {
			t.Fatalf("poll after bytes [%d:%d): delivered=%v", cut[0], cut[1], made)
		}
	}
	got := r.l.DrainRQ(make([]fabric.Packet, 0, 2))
	if len(got) != 1 || !bytes.Equal(got[0].Payload.([]byte), body) {
		t.Fatalf("delivered %d packets, or not the frame", len(got))
	}
}

// TestFlaggedConnDrainedAtOnce: a connection its watcher flagged ready
// is drained by the very next poll wherever the cadence stands, with
// one read — the short read is the end of the input — and not as a
// probe.
func TestFlaggedConnDrainedAtOnce(t *testing.T) {
	r := newProbeRig(t)
	var work transporttest.WorkCount
	r.l.BindWork(&work)
	r.quiet(100)
	before, reads := r.n.Stats(), r.reads.Load()
	r.send(wireFrame(r.l.ID(), r.n.EndpointOf(1, 0), []byte("flagged")))
	r.cs.markReady()
	if !r.l.PollRecv() {
		t.Fatal("the poll after the flag delivered nothing")
	}
	if got := r.reads.Load() - reads; got != 1 {
		t.Errorf("draining one small frame took %d reads, want 1", got)
	}
	if after := r.n.Stats(); after.Probes != before.Probes || after.ProbeHits != before.ProbeHits {
		t.Errorf("a flagged drain was counted as a probe: %+v → %+v", before, after)
	}
	if r.cs.ready.Load() {
		t.Error("the connection is still flagged after a drain read it dry")
	}
	if r.l.QueuedRQ() != 1 {
		t.Fatalf("QueuedRQ = %d, want 1", r.l.QueuedRQ())
	}
	// The polling unit and the frame; the flag's unit went with the flag.
	if got := work.Load(); got != 2 {
		t.Errorf("bound counter reads %d with one frame queued, want 2", got)
	}
	r.l.DrainRQ(make([]fabric.Packet, 0, 2))
	r.l.Close()
	if got := work.Load(); got != 0 {
		t.Errorf("bound counter reads %d after drain and Close, want 0", got)
	}
}

// TestParkingReadsBeforeSleep: the park handshake reads every
// unflagged connection wherever its cadence stands — once, hit or miss —
// and keeps the waiter up when that delivered a frame. It is what a
// waiter whose timer ended its park, no watcher having flagged anything,
// goes through before it sleeps again.
func TestParkingReadsBeforeSleep(t *testing.T) {
	r := newProbeRig(t)
	r.quiet(300) // the next cadenced probe is the 320th look
	reads := r.reads.Load()
	if !r.l.Parking() {
		t.Fatal("Parking found input on a silent connection")
	}
	if got := r.reads.Load() - reads; got != 1 {
		t.Errorf("Parking read a silent connection %d times, want 1", got)
	}
	r.send(wireFrame(r.l.ID(), r.n.EndpointOf(1, 0), []byte("unannounced")))
	r.quiet(1)
	hits := r.n.Stats().ProbeHits
	if r.l.Parking() {
		t.Fatal("Parking let the waiter sleep on a socket with a frame in it")
	}
	if r.n.Stats().ProbeHits != hits+1 || r.l.QueuedRQ() != 1 {
		t.Fatalf("Parking: %d probe hits, %d frames queued, want one of each",
			r.n.Stats().ProbeHits-hits, r.l.QueuedRQ())
	}
	// A flagged connection is the next poll's: its flag has poked the
	// sleeper, and Parking leaves it alone.
	r.send(wireFrame(r.l.ID(), r.n.EndpointOf(1, 0), []byte("flagged")))
	r.cs.markReady()
	reads = r.reads.Load()
	if !r.l.Parking() || r.reads.Load() != reads {
		t.Errorf("Parking read a flagged connection (%d reads)", r.reads.Load()-reads)
	}
	if !r.l.PollRecv() || r.l.QueuedRQ() != 2 {
		t.Fatalf("the poll after the flag left %d frames queued, want 2", r.l.QueuedRQ())
	}
}

// TestReactorInstruments: the tcp.reactor.* instruments are wired, a
// ping-pong driven by progress polls alone is found by probes, and no
// more probes hit than were made.
func TestReactorInstruments(t *testing.T) {
	// One P, and polls that yield instead of sleeping: the runtime never
	// idles into its netpoller, so the watchers stay parked and what
	// arrives is found by the polls' own probes, as between two ranks
	// taking turns on a core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := metrics.New()
	reg.Enable()
	_, _, l0, l1 := pair(t)
	l0.UseMetrics(reg, "rank0.vci0.nic")
	l1.UseMetrics(reg, "rank1.vci0.nic") // one registry serves both ranks here
	links := [2]*Link{l0, l1}
	deadline := time.Now().Add(20 * time.Second)
	const rounds = 200
	for i := 0; i < 2*rounds; i++ {
		src, dst := links[i%2], links[(i+1)%2]
		if err := src.PostSendInline(dst.ID(), []byte("ball"), 4); err != nil {
			t.Fatal(err)
		}
		for dst.QueuedRQ() == 0 {
			src.Flush()
			dst.PollRecv()
			runtime.Gosched() // the dial, the accept
			if time.Now().After(deadline) {
				t.Fatalf("hop %d never arrived", i)
			}
		}
		dst.DrainRQ(make([]fabric.Packet, 0, 2))
	}
	snap := reg.Snapshot()
	probes, hits := snap.Counter("tcp.reactor.probes"), snap.Counter("tcp.reactor.probe_hits")
	if hits == 0 || hits > probes {
		t.Errorf("tcp.reactor.probe_hits = %d of tcp.reactor.probes = %d, want 0 < hits <= probes", hits, probes)
	}
	var s Stats
	for _, l := range links {
		ls := l.net.Stats()
		s.Probes += ls.Probes
		s.ProbeHits += ls.ProbeHits
	}
	if uint64(s.Probes) != probes || uint64(s.ProbeHits) != hits {
		t.Errorf("registry reads %d/%d, Stats %d/%d", hits, probes, s.ProbeHits, s.Probes)
	}
	var have []string
	for name := range snap.Counters {
		have = append(have, name)
	}
	for name := range snap.Gauges {
		have = append(have, name)
	}
	have = slices.DeleteFunc(have, func(name string) bool { return !strings.HasPrefix(name, "tcp.reactor.") })
	slices.Sort(have)
	want := []string{"tcp.reactor.pool_drains", "tcp.reactor.probe_hits", "tcp.reactor.probes",
		"tcp.reactor.ready", "tcp.reactor.wakeups"}
	if !slices.Equal(have, want) {
		t.Errorf("the snapshot's reactor instruments are %v, want %v", have, want)
	}
}

// TestPoolTakesOverWhenPollsStop: a rank whose progress polls were
// draining its sockets a moment ago and which then goes computing is
// noticed within two sweeper ticks — the poll sequence number stops
// moving — and the pool drains for it from there; a transport nobody
// has polled since it started is not taken for a polled one.
func TestPoolTakesOverWhenPollsStop(t *testing.T) {
	_, n1, l0, l1 := pair(t)
	if n1.pollersLive() {
		t.Fatal("pollers reported live on a transport nobody has polled")
	}
	post := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			if err := l0.PostSendInline(l1.ID(), []byte("x"), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	post(1)
	deadline := time.Now().Add(5 * time.Second)
	for l1.QueuedRQ() == 0 || !n1.pollersLive() {
		l0.Flush()
		l1.PollRecv()
		runtime.Gosched()
		if time.Now().After(deadline) {
			t.Fatalf("polling rank: %d delivered, pollers live = %v", l1.QueuedRQ(), n1.pollersLive())
		}
	}
	before := n1.Stats().PoolDrains
	// From here rank 1 computes: drive polls nothing of its.
	const count = 10
	post(count)
	drive(t, l0, func() bool { return l1.QueuedRQ() >= 1+count })
	if n1.pollersLive() {
		t.Error("pollers still reported live after the pool had to drain for them")
	}
	if got := n1.Stats().PoolDrains; got == before {
		t.Error("frames were delivered with no poll and no pool drain")
	}
}

// BenchmarkPollRecvIdle is what one look at nothing costs a tcp link,
// by the number of connections it looks at: the probes' share is
// O(log n)/n of the polls, the rest is the walk and the atomics.
func BenchmarkPollRecvIdle(b *testing.B) {
	for _, conns := range []int{1, 2, 8, 16, 64} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			r := newProbeRig(b)
			for i := 1; i < conns; i++ {
				r.addConn()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.l.PollRecv()
			}
			b.ReportMetric(float64(r.reads.Load())/float64(b.N), "reads/op")
		})
	}
}
