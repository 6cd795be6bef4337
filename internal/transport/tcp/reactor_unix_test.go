//go:build unix

package tcp

import (
	"bytes"
	"encoding/binary"
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
	"gompix/internal/transport/framing"
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
// the peer (writes on the other end), so every read the reactor issues
// is the polls' own.
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

// TestParkingReadsBeforeSleep: the park handshake reads every
// connection wherever its cadence stands — once, hit or miss — and
// keeps the waiter up when that delivered a frame. It is what a waiter
// whose timer ended its park, no watcher having drained anything, goes
// through before it sleeps again.
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
		"tcp.reactor.wakeups"}
	if !slices.Equal(have, want) {
		t.Errorf("the snapshot's reactor instruments are %v, want %v", have, want)
	}
}

// TestWatcherDrainsUnpolledReceiver: a receiver that never polls takes
// in more than both socket buffers hold. Its connection's watcher reads
// every frame, in order, so the sender's writev — which can finish only
// once the receiver drains — returns and its Flush loop ends.
func TestWatcherDrainsUnpolledReceiver(t *testing.T) {
	_, n1, l0, l1 := pair(t)
	const size, count = 64 << 10, 128 // 8 MiB
	sent := make(chan error, 1)
	go func() {
		msg := make([]byte, size)
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint32(msg, uint32(i))
			if err := l0.PostSendInline(l1.ID(), msg, size); err != nil {
				sent <- err
				return
			}
		}
		for l0.PendingTx() > 0 {
			l0.Flush()
			time.Sleep(100 * time.Microsecond)
		}
		sent <- nil
	}()
	deadline := time.After(20 * time.Second)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatalf("the sender's Flush loop never finished: %d frames pending, %d delivered",
			l0.PendingTx(), l1.QueuedRQ())
	}
	for l1.QueuedRQ() < count {
		select {
		case <-deadline:
			t.Fatalf("%d of %d frames delivered", l1.QueuedRQ(), count)
		case <-time.After(100 * time.Microsecond):
		}
	}
	got := l1.DrainRQ(make([]fabric.Packet, 0, count))
	for i, p := range got {
		b := p.Payload.([]byte)
		if len(b) != size || binary.LittleEndian.Uint32(b) != uint32(i) {
			t.Fatalf("frame %d: %d bytes, sequence number %d", i, len(b), binary.LittleEndian.Uint32(b))
		}
	}
	if len(got) != count {
		t.Fatalf("drained %d of %d frames", len(got), count)
	}
	if n1.Stats().PoolDrains == 0 {
		t.Error("frames were delivered with no poll and no watcher drain")
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

// placingCodec carries []byte payloads and places the whole body of
// every frame that arrives in pieces into a buffer of its own; heads
// records how much of each frame had arrived when it was asked.
type placingCodec struct {
	nic.ByteCodec
	heads []int
}

func (*placingCodec) EncodeSplit(buf []byte, payload any) ([]byte, []byte, error) {
	return buf, payload.([]byte), nil
}

func (*placingCodec) DecodeOwned(_, data []byte) (any, error) { return data, nil }

func (c *placingCodec) Place(_, _ fabric.EndpointID, size int, head []byte) ([]byte, nic.Placement, int) {
	c.heads = append(c.heads, len(head))
	body := make([]byte, size)
	return body, placedBody(body), 0
}

type placedBody []byte

func (b placedBody) Finish() any { return []byte(b) }
func (placedBody) Drop()         {}

// TestConnPlacedCopyBound: a connection reads a 64 KiB frame the codec
// places (a rendezvous chunk) into its stream's own small buffer only
// until the frame's header is in; the rest of the body is read from the
// socket straight into the placement. So of each body at most that
// buffer's 16 KiB crosses it, however much of the frame the socket
// already holds.
func TestConnPlacedCopyBound(t *testing.T) {
	const frames, size, bufSize = 4, 64 << 10, 16 << 10
	r := newProbeRig(t)
	codec := new(placingCodec)
	r.n.SetCodec(codec)
	for i := 0; i < frames; i++ {
		frame := binary.LittleEndian.AppendUint32(nil, uint32(framing.HdrLen+size))
		frame = binary.LittleEndian.AppendUint64(frame, 0) // the rig's link
		frame = binary.LittleEndian.AppendUint64(frame, 1) // rank 1's endpoint
		frame = binary.LittleEndian.AppendUint32(frame, size)
		frame = append(frame, bytes.Repeat([]byte{byte(1 + i)}, size)...)
		r.send(frame)
		r.cs.mu.Lock()
		for deadline := time.Now().Add(5 * time.Second); r.l.QueuedRQ() == 0; {
			r.n.drainConn(r.cs, false)
			if time.Now().After(deadline) {
				r.cs.mu.Unlock()
				t.Fatalf("frame %d was not delivered", i)
			}
		}
		r.cs.mu.Unlock()
		got := r.l.DrainRQ(make([]fabric.Packet, 0, 2))
		if b, ok := got[0].Payload.([]byte); len(got) != 1 || !ok || len(b) != size || b[0] != byte(1+i) || b[size-1] != byte(1+i) {
			t.Fatalf("frame %d delivered wrong", i)
		}
	}
	if len(codec.heads) != frames {
		t.Fatalf("%d frames placed, want %d", len(codec.heads), frames)
	}
	for i, h := range codec.heads {
		if copied := h - framing.HdrLen; copied > bufSize {
			t.Errorf("frame %d: %d body bytes read into the receive buffer before placement, want at most %d", i, copied, bufSize)
		}
	}
}
