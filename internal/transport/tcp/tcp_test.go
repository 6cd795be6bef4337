package tcp

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/transport/framing"
)

// pair builds a two-rank TCP world in-process: bind :0, exchange
// addresses, register one link each, start accept loops.
func pair(t *testing.T) (*Network, *Network, *Link, *Link) {
	t.Helper()
	nets := make([]*Network, 2)
	addrs := make([]string, 2)
	for r := 0; r < 2; r++ {
		n, err := New(Config{Rank: r, WorldSize: 2, Epoch: 7})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetCodec(nic.ByteCodec{})
		nets[r] = n
		addrs[r] = n.Addr()
	}
	links := make([]*Link, 2)
	for r := 0; r < 2; r++ {
		nets[r].SetPeerAddrs(addrs)
		l, err := nets[r].AddLink(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		links[r] = l.(*Link)
		if err := nets[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	return nets[0], nets[1], links[0], links[1]
}

// drive flushes l until idle or timeout.
func drive(t *testing.T, l *Link, until func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !until() {
		l.Flush()
		if time.Now().After(deadline) {
			t.Fatal("timeout driving link")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestLinkRoundTrip(t *testing.T) {
	n0, _, l0, l1 := pair(t)
	if got := n0.EndpointOf(1, 0); got != l1.ID() {
		t.Fatalf("EndpointOf(1,0) = %d, link ID = %d", got, l1.ID())
	}
	const count = 50
	for i := 0; i < count; i++ {
		msg := []byte{byte(i), byte(i >> 8)}
		if err := l0.PostSendInline(l1.ID(), msg, len(msg)); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, l0, func() bool { return l1.QueuedRQ() >= count })
	got := make([]fabric.Packet, 0, count)
	got = l1.DrainRQ(got[:cap(got)])
	if len(got) != count {
		t.Fatalf("drained %d of %d", len(got), count)
	}
	for i, p := range got {
		b := p.Payload.([]byte)
		if p.Src != l0.ID() || p.Dst != l1.ID() || binary.LittleEndian.Uint16(b) != uint16(i) {
			t.Fatalf("packet %d: %+v payload %v", i, p, b)
		}
	}
}

func TestLinkSignaledCompletions(t *testing.T) {
	_, _, l0, l1 := pair(t)
	const count = 10
	for i := 0; i < count; i++ {
		if err := l0.PostSend(l1.ID(), []byte("payload"), 7, i); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, l0, func() bool { return l0.QueuedCQ() >= count })
	cqes := l0.DrainCQ(make([]nic.CQE, count))
	for i, c := range cqes {
		if c.Err != nil || c.Token.(int) != i {
			t.Fatalf("CQE %d: %+v", i, c)
		}
	}
	if l0.PendingTx() != 0 {
		t.Fatalf("PendingTx = %d after full flush", l0.PendingTx())
	}
	if _, idle := l0.Flush(); !idle {
		t.Fatal("Flush should report idle with nothing pending")
	}
}

func TestLinkArmDisarmCycle(t *testing.T) {
	_, _, l0, l1 := pair(t)
	arms := 0
	l0.SetArm(func() { arms++ })
	l0.PostSendInline(l1.ID(), []byte("a"), 1)
	l0.PostSendInline(l1.ID(), []byte("b"), 1)
	if arms != 1 {
		t.Fatalf("arms = %d after two posts while busy, want 1", arms)
	}
	drive(t, l0, func() bool { _, idle := l0.Flush(); return idle })
	l0.PostSendInline(l1.ID(), []byte("c"), 1)
	if arms != 2 {
		t.Fatalf("arms = %d after idle->busy transition, want 2", arms)
	}
}

func TestLinkDialFailure(t *testing.T) {
	n, err := New(Config{Rank: 0, WorldSize: 2, DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetCodec(nic.ByteCodec{})
	// Rank 1's address points at a port nobody listens on.
	dead, _ := New(Config{Rank: 1, WorldSize: 2})
	addr := dead.Addr()
	dead.Close()
	n.SetPeerAddrs([]string{n.Addr(), addr})
	li, _ := n.AddLink(0, 0)
	l := li.(*Link)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := l.PostSend(n.EndpointOf(1, 0), []byte("doomed"), 6, "tok"); err != nil {
		t.Fatal(err)
	}
	// The failure surfaces as two CQEs: the PeerDown verdict first,
	// then the queued frame's completion — both ErrLinkDown.
	deadline := time.Now().Add(5 * time.Second)
	var cqes []nic.CQE
	for {
		l.Flush()
		cqes = append(cqes, l.DrainCQ(make([]nic.CQE, 0, 4))...)
		if len(cqes) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial failure never surfaced; CQEs = %+v", cqes)
		}
		time.Sleep(time.Millisecond)
	}
	if len(cqes) != 2 {
		t.Fatalf("CQEs = %+v, want verdict + frame failure", cqes)
	}
	if cqes[0].Token != (nic.PeerDown{Rank: 1}) || !errors.Is(cqes[0].Err, nic.ErrLinkDown) {
		t.Fatalf("first CQE = %+v, want PeerDown{1} with ErrLinkDown", cqes[0])
	}
	if cqes[1].Token != "tok" || !errors.Is(cqes[1].Err, nic.ErrLinkDown) {
		t.Fatalf("second CQE = %+v, want ErrLinkDown for tok", cqes[1])
	}
	// Subsequent posts fail fast.
	if err := l.PostSendInline(n.EndpointOf(1, 0), []byte("late"), 4); err == nil {
		t.Fatal("post after dial failure should error")
	}
}

func TestEpochMismatchRejected(t *testing.T) {
	nets := make([]*Network, 2)
	addrs := make([]string, 2)
	for r := 0; r < 2; r++ {
		n, err := New(Config{Rank: r, WorldSize: 2, Epoch: uint64(r), DialTimeout: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		n.SetCodec(nic.ByteCodec{})
		nets[r] = n
		addrs[r] = n.Addr()
	}
	var links [2]*Link
	for r := 0; r < 2; r++ {
		nets[r].SetPeerAddrs(addrs)
		li, _ := nets[r].AddLink(r, 0)
		links[r] = li.(*Link)
		nets[r].Start()
	}
	// Epochs differ (0 vs 1): rank 1 must never see the frame.
	links[0].PostSendInline(nets[0].EndpointOf(1, 0), []byte("stale"), 5)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		links[0].Flush()
		if links[1].QueuedRQ() != 0 {
			t.Fatal("frame crossed an epoch boundary")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReliableOverTCP(t *testing.T) {
	// The go-back-N layer must run unchanged over the TCP link with
	// RelCodec framing: post through Reliable on one side, drain
	// relFrames into payloads on the other.
	nets := make([]*Network, 2)
	addrs := make([]string, 2)
	for r := 0; r < 2; r++ {
		n, err := New(Config{Rank: r, WorldSize: 2, Epoch: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetCodec(nic.RelCodec(nic.ByteCodec{}))
		nets[r] = n
	}
	for r := 0; r < 2; r++ {
		addrs[r] = nets[r].Addr()
	}
	rels := make([]*nic.Reliable, 2)
	raw := make([]*Link, 2)
	for r := 0; r < 2; r++ {
		nets[r].SetPeerAddrs(addrs)
		li, _ := nets[r].AddLink(r, 0)
		raw[r] = li.(*Link)
		rels[r] = nic.NewReliable(li, nic.ByteCodec{}, nets[r].RankOfEndpoint, nic.RelConfig{RTO: 50 * time.Millisecond})
		nets[r].Start()
	}
	const count = 40
	for i := 0; i < count; i++ {
		rels[0].PostSend(raw[1].ID(), []byte{byte(i)}, 1, i)
	}
	var got []int
	var toks []int
	deadline := time.Now().Add(10 * time.Second)
	for (len(got) < count || len(toks) < count) && time.Now().Before(deadline) {
		raw[0].Flush()
		raw[1].Flush()
		for _, p := range rels[1].DrainRQ(make([]fabric.Packet, 0, count)) {
			got = append(got, int(p.Payload.([]byte)[0]))
		}
		rels[0].DrainRQ(make([]fabric.Packet, 0, count)) // processes inbound cumulative ACKs
		for _, c := range rels[0].DrainCQ(make([]nic.CQE, 0, count)) {
			if c.Err != nil {
				t.Fatalf("CQE error over clean TCP: %v", c.Err)
			}
			toks = append(toks, c.Token.(int))
		}
		rels[0].Flush()
		rels[1].Flush()
		time.Sleep(100 * time.Microsecond)
	}
	if len(got) != count || len(toks) != count {
		t.Fatalf("delivered %d/%d, completed %d/%d (stats %+v)", len(got), count, len(toks), count, rels[0].Stats())
	}
	for i := range got {
		if got[i] != i || toks[i] != i {
			t.Fatalf("order violated at %d: got=%d tok=%d", i, got[i], toks[i])
		}
	}
}

// sendRaw dials addr, completes the hello as the given rank, and
// returns the connection for writing hand-crafted (or hostile) bytes.
func sendRaw(t *testing.T, addr string, epoch uint64, rank int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hello [16]byte
	binary.LittleEndian.PutUint32(hello[0:], helloMagic)
	binary.LittleEndian.PutUint64(hello[4:], epoch)
	binary.LittleEndian.PutUint32(hello[12:], uint32(rank))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// wireFrame builds one frame as it travels: length prefix, header,
// payload.
func wireFrame(dst, src fabric.EndpointID, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(framing.HdrLen+len(payload)))
	b = binary.LittleEndian.AppendUint64(b, uint64(dst))
	b = binary.LittleEndian.AppendUint64(b, uint64(src))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// waitStat polls until pred sees the stats it wants or the deadline
// expires.
func waitStat(t *testing.T, n *Network, what string, pred func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred(n.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never observed; stats %+v", what, n.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCorruptFrameDropsConn: a corrupt length from a peer ends its
// connection — a byte stream has no resync point — and the lost
// connection is the peer's verdict: posts toward it fail at once.
func TestCorruptFrameDropsConn(t *testing.T) {
	_, n1, l0, l1 := pair(t)
	conn := sendRaw(t, n1.Addr(), 7, 0)
	defer conn.Close()
	// A frame length below the header size is unparseable garbage: the
	// receiver must drop the connection and count it — never panic.
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 3)
	if _, err := conn.Write(lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	waitStat(t, n1, "corrupt frame verdict", func(s Stats) bool { return s.CorruptFrames == 1 && s.PeersDown == 1 })
	if err := l1.PostSendInline(l0.ID(), []byte("late"), 4); err == nil {
		t.Fatal("post after the verdict should fail at once")
	}
}

// TestUnknownEndpointSkipped: a well-formed frame for an endpoint
// nobody registered is counted and skipped, as on shm — no verdict —
// and the frame behind it on the same connection is delivered.
func TestUnknownEndpointSkipped(t *testing.T) {
	_, n1, l0, l1 := pair(t)
	conn := sendRaw(t, n1.Addr(), 7, 0)
	defer conn.Close()
	frames := append(wireFrame(9999, l0.ID(), nil), wireFrame(l1.ID(), l0.ID(), []byte("ok"))...)
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	drive(t, l1, func() bool { l1.PollRecv(); return l1.QueuedRQ() == 1 })
	if s := n1.Stats(); s.UnknownEndpoints != 1 || s.CorruptFrames != 0 || s.PeersDown != 0 {
		t.Fatalf("stats = %+v, want 1 unknown endpoint, no corruption, no verdict", s)
	}
	if got := l1.DrainRQ(make([]fabric.Packet, 0, 2)); len(got) != 1 || string(got[0].Payload.([]byte)) != "ok" {
		t.Fatalf("delivered %+v, want the one frame behind the skipped one", got)
	}
}

func TestPeerDeathVerdict(t *testing.T) {
	n0, n1, l0, l1 := pair(t)
	// Establish the connection with real traffic first: this is a loss
	// of an established link, not a failed first dial.
	if err := l0.PostSendInline(l1.ID(), []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	drive(t, l0, func() bool { return l1.QueuedRQ() == 1 })

	n1.Kill() // no goodbye: the SIGKILL shape
	var cqes []nic.CQE
	deadline := time.Now().Add(5 * time.Second)
	for {
		l0.Flush()
		cqes = append(cqes, l0.DrainCQ(make([]nic.CQE, 0, 4))...)
		if len(cqes) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("verdict never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	if cqes[0].Token != (nic.PeerDown{Rank: 1}) || !errors.Is(cqes[0].Err, nic.ErrLinkDown) {
		t.Fatalf("CQE = %+v, want PeerDown{1} with ErrLinkDown", cqes[0])
	}
	if s := n0.Stats(); s.PeersDown != 1 {
		t.Fatalf("stats = %+v, want 1 verdict", s)
	}
	// Posts after the verdict fail fast.
	if err := l0.PostSendInline(l1.ID(), []byte("late"), 4); err == nil {
		t.Fatal("post after verdict should error")
	}
}

func TestGracefulDepartureNoVerdict(t *testing.T) {
	n0, n1, l0, l1 := pair(t)
	if err := l0.PostSendInline(l1.ID(), []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	drive(t, l0, func() bool { return l1.QueuedRQ() == 1 })

	n1.Close() // goodbye first: a clean exit, not a failure
	// Give a (wrong) verdict on the EOFs that follow time to land.
	time.Sleep(100 * time.Millisecond)
	if s := n0.Stats(); s.PeersDown != 0 {
		t.Fatalf("stats after peer departure = %+v, want no verdict", s)
	}
	// Sends to a departed peer fail fast instead of burning the dial
	// window against a closed listener.
	if err := l0.PostSendInline(l1.ID(), []byte("late"), 4); err == nil {
		t.Fatal("post to departed peer should error")
	}
	if n := l0.QueuedCQ(); n != 0 {
		t.Fatalf("QueuedCQ = %d after departure, want 0 (no verdict CQE)", n)
	}
}

// TestProbeCadenceHasNoLockStep models two ranks that take turns on one
// core, one pass each per turn, playing ping-pong over the cadence: a
// rank's k-th look since its last hit comes k-1 turns after the hit
// (the first is in the pass that sent its own message), and it finds
// what the peer sent on the first due look after the send. From any
// starting offset between the two the exchange must settle at the
// second look, not at a later one that each rank's lateness hands back
// to the other. With probes due on looks 1, 2, 4, 8 … it settles on
// whichever power of two lies next above the offset and stays there.
func TestProbeCadenceHasNoLockStep(t *testing.T) {
	firstDueAfter := func(reset, sent int) (look uint32, at int) {
		// Rank 0 passes at even times, rank 1 at odd ones.
		for k := uint32(1); ; k++ {
			if at = reset + 2*int(k-1); probeDue(k) && at > sent {
				return k, at
			}
		}
	}
	for offset := 1; offset < 200; offset++ {
		reset := [2]int{0, 1 - 2*offset} // when each rank last hit
		sent, to := 0, 1
		var look uint32
		for hop := 0; hop < 400; hop++ {
			look, reset[to] = firstDueAfter(reset[to], sent)
			sent, to = reset[to], 1-to
		}
		if look != 2 {
			t.Fatalf("ranks %d turns apart settle at look %d, want 2", offset, look)
		}
	}
}
