package shm

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/transport/framing"
)

func requireSupported(t *testing.T) {
	t.Helper()
	if !Supported() {
		t.Skip("shm transport not supported on this platform")
	}
}

// newPair builds a 2-rank shm world over one segment directory.
func newPair(t *testing.T, dir string, epoch uint64) (nets [2]*Network, links [2]*Link) {
	t.Helper()
	for r := 0; r < 2; r++ {
		n, err := New(Config{
			Rank: r, WorldSize: 2, Epoch: epoch, Dir: dir,
			ProbeInterval: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.SetCodec(nic.ByteCodec{})
		nets[r] = n
		l, err := n.AddLink(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		links[r] = l.(*Link)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return nets, links
}

// segFiles lists the entries of a job directory ("" when it is gone).
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestSegmentHygieneCleanFinalize: a clean close unlinks every segment
// file this job created — the last member out removes the directory
// itself.
func TestSegmentHygieneCleanFinalize(t *testing.T) {
	requireSupported(t)
	base := t.TempDir()
	nets, links := newPair(t, base, 7)
	jdir := nets[0].Dir()

	// Exchange real traffic so the rings are hot, not pristine.
	msg := []byte("hygiene")
	if err := links[0].PostSendInline(links[1].ID(), msg, len(msg)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for links[1].QueuedRQ() == 0 {
		links[0].Flush()
		links[1].PollRecv()
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived")
		}
	}

	nets[0].Close()
	nets[1].Close()
	if left := segFiles(t, jdir); left != nil {
		t.Fatalf("clean finalize leaked segment files: %v", left)
	}
	if _, err := os.Stat(jdir); !os.IsNotExist(err) {
		t.Fatalf("job directory %s survived clean finalize", jdir)
	}
}

// TestSegmentHygieneKilledRank: a killed rank leaves its segment files
// behind (nothing in the dead process can clean up), and the next
// job's startup sweep detects the stale epoch — job lock no longer
// held by anyone — and unlinks the whole directory.
func TestSegmentHygieneKilledRank(t *testing.T) {
	requireSupported(t)
	base := t.TempDir()
	nets, _ := newPair(t, base, 7)
	jdir := nets[0].Dir()

	nets[0].Kill()
	nets[1].Kill()
	if left := segFiles(t, jdir); len(left) == 0 {
		t.Fatal("killed job should leave segment files behind")
	}

	// Age the stale directory past the threshold (the sweep's guard
	// against racing a job that has not locked its dir yet).
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(jdir, old, old); err != nil {
		t.Fatal(err)
	}

	n, err := New(Config{Rank: 0, WorldSize: 2, Epoch: 8, Dir: base, StaleAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := os.Stat(jdir); !os.IsNotExist(err) {
		t.Fatalf("stale epoch directory %s not reclaimed at startup", jdir)
	}
	if n.Stats().ReclaimedDirs != 1 {
		t.Fatalf("ReclaimedDirs = %d, want 1", n.Stats().ReclaimedDirs)
	}
}

// TestStaleReclaimSparesLiveJobs: the sweep must not touch a directory
// whose members are alive (shared job lock held), no matter how old.
func TestStaleReclaimSparesLiveJobs(t *testing.T) {
	requireSupported(t)
	base := t.TempDir()
	live, liveLinks := newPair(t, base, 7)
	defer live[0].Close()
	defer live[1].Close()
	jdir := live[0].Dir()
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(jdir, old, old); err != nil {
		t.Fatal(err)
	}

	n, err := New(Config{Rank: 0, WorldSize: 2, Epoch: 9, Dir: base, StaleAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := os.Stat(jdir); err != nil {
		t.Fatalf("live job directory was reclaimed: %v", err)
	}
	// The live pair still works after the sweep.
	msg := []byte("alive")
	if err := liveLinks[0].PostSendInline(liveLinks[1].ID(), msg, len(msg)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for liveLinks[1].QueuedRQ() == 0 {
		liveLinks[0].Flush()
		liveLinks[1].PollRecv()
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived after sweep")
		}
	}
}

// TestChunkedFrameAcrossCells: a frame much larger than one ring's
// total capacity streams through cell by cell, driven only by
// alternating sender flushes and receiver polls.
func TestChunkedFrameAcrossCells(t *testing.T) {
	requireSupported(t)
	base := t.TempDir()
	nets := [2]*Network{}
	links := [2]*Link{}
	for r := 0; r < 2; r++ {
		n, err := New(Config{
			Rank: r, WorldSize: 2, Epoch: 7, Dir: base,
			Cells: 8, CellPayload: 256, // ring holds 2K; the frame is 64K
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetCodec(nic.ByteCodec{})
		nets[r] = n
		l, err := n.AddLink(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		links[r] = l.(*Link)
	}
	msg := make([]byte, 64<<10)
	for i := range msg {
		msg[i] = byte(i*7 + i>>8)
	}
	if err := links[0].PostSend(links[1].ID(), msg, len(msg), "jumbo"); err != nil {
		t.Fatal(err)
	}
	var got []fabric.Packet
	scratch := make([]fabric.Packet, 4)
	deadline := time.Now().Add(10 * time.Second)
	for len(got) == 0 {
		links[0].Flush()
		links[1].PollRecv()
		got = append(got, links[1].DrainRQ(scratch[:0])...)
		if time.Now().After(deadline) {
			t.Fatal("jumbo frame never completed")
		}
	}
	b := got[0].Payload.([]byte)
	if len(b) != len(msg) {
		t.Fatalf("got %d bytes, want %d", len(b), len(msg))
	}
	for i := range b {
		if b[i] != msg[i] {
			t.Fatalf("corrupt byte at %d", i)
		}
	}
	// The sender's completion settles once the last chunk publishes.
	var cq [4]nic.CQE
	cqes := links[0].DrainCQ(cq[:0])
	if len(cqes) != 1 || cqes[0].Token != "jumbo" || cqes[0].Err != nil {
		t.Fatalf("unexpected completions: %+v", cqes)
	}
	if nets[0].Stats().TxChunks < 8 {
		t.Fatalf("TxChunks = %d, want many (frame must have chunked)", nets[0].Stats().TxChunks)
	}
}

// TestShmSteadyStateAllocs: once warmed up, a full round-trip — post,
// inline pump into the ring, receive-side drain and parse, RQ/CQ
// drains — performs zero heap allocations on either side. This is the
// same bar the TCP reactor holds (DESIGN.md §11).
func TestShmSteadyStateAllocs(t *testing.T) {
	requireSupported(t)
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in non-race CI passes")
	}
	base := t.TempDir()
	codecs := [2]*freelistCodec{{}, {}}
	nets := [2]*Network{}
	links := [2]*Link{}
	for r := 0; r < 2; r++ {
		n, err := New(Config{Rank: r, WorldSize: 2, Epoch: 7, Dir: base})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetCodec(codecs[r])
		nets[r] = n
		l, err := n.AddLink(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		links[r] = l.(*Link)
	}
	msg := make([]byte, 64)
	payload := &msg // pre-boxed: a fresh any-of-slice would allocate per post
	scratch := make([]fabric.Packet, 8)
	var cqScratch [8]nic.CQE
	roundTrip := func(src, dst *Link, c *freelistCodec) {
		if err := src.PostSendInline(dst.ID(), payload, len(msg)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for dst.QueuedRQ() == 0 {
			src.Flush()
			dst.PollRecv()
			if time.Now().After(deadline) {
				t.Fatal("frame never arrived")
			}
		}
		for _, p := range dst.DrainRQ(scratch[:0]) {
			c.put(p.Payload.(*[]byte))
		}
		src.DrainCQ(cqScratch[:0])
	}
	round := func() {
		roundTrip(links[0], links[1], codecs[1])
		roundTrip(links[1], links[0], codecs[0])
	}
	for i := 0; i < 200; i++ {
		round() // warm every pool, grow every queue to steady capacity
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("steady-state round-trip allocates %.1f objects/op, want 0", avg)
	}
}

// freelistCodec hands out pooled pointer-shaped payloads so codec
// allocations do not mask transport allocations in the gate above.
type freelistCodec struct {
	free []*[]byte
}

func (c *freelistCodec) Encode(buf []byte, payload any) ([]byte, error) {
	return append(buf, *payload.(*[]byte)...), nil
}

func (c *freelistCodec) Decode(data []byte) (any, error) {
	var b *[]byte
	if n := len(c.free); n > 0 {
		b = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		s := make([]byte, 0, 256)
		b = &s
	}
	*b = append((*b)[:0], data...)
	return b, nil
}

func (c *freelistCodec) put(b *[]byte) { c.free = append(c.free, b) }

// TestDuplicateRankRejected: two transports claiming the same rank in
// one epoch is a launch bug; the alive lock catches it.
func TestDuplicateRankRejected(t *testing.T) {
	requireSupported(t)
	base := t.TempDir()
	n, err := New(Config{Rank: 0, WorldSize: 2, Epoch: 7, Dir: base})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := New(Config{Rank: 0, WorldSize: 2, Epoch: 7, Dir: base}); err == nil {
		t.Fatal("duplicate rank 0 in one epoch was not rejected")
	}
	if _, err := os.Stat(filepath.Join(n.Dir(), "rank0.alive")); err != nil {
		t.Fatalf("original rank's alive file damaged by the rejected duplicate: %v", err)
	}
}

// TestDoorbellWakesIdleReceiver: a frame posted while the receiver
// never polls must still land in its receive queue — the producer's
// progress pass writes the wakeup byte into the receiver's FIFO and
// the receiver's watcher goroutine, parked in a blocking read, drains
// the ring on its own. This is the kernel-wakeup path that lets an
// idle (deep-backoff or descheduled) rank see shared-memory traffic
// without burning a poll loop.
func TestDoorbellWakesIdleReceiver(t *testing.T) {
	requireSupported(t)
	base := t.TempDir()
	nets, links := newPair(t, base, 11)
	for r := 0; r < 2; r++ {
		n := nets[r]
		t.Cleanup(func() { n.Close() })
	}
	if nets[1].bell == nil {
		t.Skip("no FIFO support in the segment directory; doorbell degraded to polling")
	}
	msg := []byte("wake up")
	if err := links[0].PostSendInline(links[1].ID(), msg, len(msg)); err != nil {
		t.Fatal(err)
	}
	links[0].Flush() // the poster's pass delivers the owed wakeup byte
	// No PollRecv on links[1]: only the watcher can move the frame.
	deadline := time.Now().Add(5 * time.Second)
	for links[1].QueuedRQ() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never drained the ring (bells rung: %d)", nets[0].Stats().BellsRung)
		}
		time.Sleep(time.Millisecond)
	}
	if got := nets[0].Stats().BellsRung; got == 0 {
		t.Fatalf("frame delivered but no bell was rung — watcher cannot have woken")
	}
}

// fakeWall replaces both networks' wall clock with one the test steps,
// so "polled within the live window" is a fact of the test, not of the
// host's scheduler.
func fakeWall(nets [2]*Network) *atomic.Int64 {
	wall := new(atomic.Int64)
	wall.Store(int64(time.Hour))
	for _, n := range nets {
		n.wallNow = wall.Load
	}
	return wall
}

// TestDoorbellFollowsConsumerState is the who-rings-whom table: a
// producer rings the consumer's doorbell for a publish into an empty
// ring exactly when the consumer is not polling — at rest, about to
// park, or with a poll stamp older than the live window — and never
// while the consumer's polls are live.
func TestDoorbellFollowsConsumerState(t *testing.T) {
	requireSupported(t)
	nets, links := newPair(t, t.TempDir(), 21)
	for _, n := range nets {
		n := n
		t.Cleanup(func() { n.Close() })
	}
	if nets[1].bell == nil {
		t.Skip("no FIFO support in the segment directory")
	}
	wall := fakeWall(nets)
	prod, cons := links[0], links[1]
	msg := []byte("state")
	// publish posts one frame into the (drained) ring and settles the
	// doorbell debt; it returns how many bells that rang or suppressed.
	publish := func() (rung, suppressed uint64) {
		t.Helper()
		before := nets[0].Stats()
		if err := prod.PostSendInline(cons.ID(), msg, len(msg)); err != nil {
			t.Fatal(err)
		}
		prod.Flush()
		after := nets[0].Stats()
		return after.BellsRung - before.BellsRung, after.BellsSuppressed - before.BellsSuppressed
	}
	// drain empties the ring on the consumer's thread (stamping its
	// polls) and its receive queue, whoever filled it.
	scratch := make([]fabric.Packet, 0, 64)
	drain := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		got := 0
		for got == 0 {
			for i := 0; i < stampEvery; i++ {
				cons.PollRecv()
			}
			scratch = cons.DrainRQ(scratch)
			got = len(scratch)
			if time.Now().After(deadline) {
				t.Fatal("frame never arrived")
			}
		}
	}

	if rung, _ := publish(); rung != 1 {
		t.Errorf("consumer at rest (never polled): %d bells, want 1", rung)
	}
	drain()
	if rung, supp := publish(); rung != 0 || supp != 1 {
		t.Errorf("consumer polling: %d bells, %d suppressed, want 0 and 1", rung, supp)
	}
	drain()
	wall.Add(int64(pollStampWindow) + 1) // the consumer went computing
	if rung, _ := publish(); rung != 1 {
		t.Errorf("consumer's stamp stale: %d bells, want 1", rung)
	}
	drain()
	if !cons.Parking() {
		t.Fatal("Parking refused with empty rings")
	}
	if rung, _ := publish(); rung != 1 {
		t.Errorf("consumer parked: %d bells, want 1", rung)
	}
	if cons.Parking() && cons.QueuedRQ() == 0 {
		t.Error("Parking allowed a sleep with a published cell in the ring")
	}
	drain() // the first poll after a park re-stamps at once
	if rung, _ := publish(); rung != 0 {
		t.Errorf("consumer polling again after a park: %d bells, want 0", rung)
	}
}

// TestPollingConsumerNeverRung: 10k ping-pongs between two ends that
// poll every round ring no doorbell at all.
func TestPollingConsumerNeverRung(t *testing.T) {
	requireSupported(t)
	nets, links := newPair(t, t.TempDir(), 22)
	for _, n := range nets {
		n := n
		t.Cleanup(func() { n.Close() })
	}
	wall := fakeWall(nets)
	msg := []byte("pingpong")
	scratch := make([]fabric.Packet, 0, 64)
	recv := func(l *Link) {
		t.Helper()
		for spins := 0; ; spins++ {
			l.PollRecv()
			if scratch = l.DrainRQ(scratch); len(scratch) == 1 {
				return
			}
			if spins > 1<<20 {
				t.Fatal("frame never arrived")
			}
		}
	}
	// Both ends poll once before the first publish: a rank is at rest,
	// and rung, only until its first poll.
	links[0].PollRecv()
	links[1].PollRecv()
	before := [2]Stats{nets[0].Stats(), nets[1].Stats()}
	const rounds = 10000
	for i := 0; i < rounds; i++ {
		for src := 0; src < 2; src++ {
			if err := links[src].PostSendInline(links[1-src].ID(), msg, len(msg)); err != nil {
				t.Fatal(err)
			}
			links[src].Flush()
			recv(links[1-src])
		}
		wall.Add(int64(time.Microsecond))
	}
	for r, n := range nets {
		st := n.Stats()
		if d := st.BellsRung - before[r].BellsRung; d != 0 {
			t.Errorf("rank %d rang %d bells in %d ping-pongs with a polling peer", r, d, rounds)
		}
		if d := st.BellsSuppressed - before[r].BellsSuppressed; d != rounds {
			t.Errorf("rank %d suppressed %d bells, want %d (one per empty→nonempty publish)", r, d, rounds)
		}
	}
}

// rawFrame is one wire frame as a peer's pump would publish it.
func rawFrame(dst, src fabric.EndpointID, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(framing.HdrLen+len(payload)))
	b = binary.LittleEndian.AppendUint64(b, uint64(dst))
	b = binary.LittleEndian.AppendUint64(b, uint64(src))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// TestHostileRingInput pins what the receive side does with bytes a
// misbehaving peer scribbles into its transmit ring — this transport's
// policy for the faults the shared frame parser reports, beside tcp's
// TestCorruptFrameDropsConn/TestUnknownEndpointDropsConn: a frame for
// an endpoint nobody registered is counted and skipped, and the stream
// goes on; a corrupt length prefix has no resync point and is the peer's
// failure verdict. Neither panics the rank.
func TestHostileRingInput(t *testing.T) {
	requireSupported(t)
	nets, links := newPair(t, t.TempDir(), 11)
	t.Cleanup(func() { nets[0].Close(); nets[1].Close() })
	ring := nets[1].peers[0].tx // rank 1's transmit ring is rank 0's input
	poll := func() []fabric.Packet {
		links[0].PollRecv()
		return links[0].DrainRQ(make([]fabric.Packet, 0, 4))
	}

	// Unknown endpoint, then a good frame, in one cell.
	cell := append(rawFrame(9999, links[1].ID(), []byte("lost")), rawFrame(links[0].ID(), links[1].ID(), []byte("kept"))...)
	if !ring.pushChunk(cell) {
		t.Fatal("ring full")
	}
	got := poll()
	if len(got) != 1 || string(got[0].Payload.([]byte)) != "kept" {
		t.Fatalf("delivered %+v, want the one frame behind the misaddressed one", got)
	}
	if s := nets[0].Stats(); s.UnknownEndpoints != 1 || s.CorruptFrames != 0 || s.PeersDown != 0 || links[0].QueuedCQ() != 0 {
		t.Fatalf("after an unknown endpoint: stats %+v, %d CQEs; want it counted and skipped, no verdict", s, links[0].QueuedCQ())
	}

	// A length prefix below the header size, behind a good frame.
	cell = append(rawFrame(links[0].ID(), links[1].ID(), []byte("last")), 3, 0, 0, 0)
	if !ring.pushChunk(cell) {
		t.Fatal("ring full")
	}
	if got = poll(); len(got) != 1 || string(got[0].Payload.([]byte)) != "last" {
		t.Fatalf("delivered %+v, want the frame parsed before the corrupt one", got)
	}
	if s := nets[0].Stats(); s.CorruptFrames != 1 || s.PeersDown != 1 {
		t.Fatalf("after a corrupt length: stats %+v, want 1 corrupt frame and 1 verdict", s)
	}
	cqes := links[0].DrainCQ(make([]nic.CQE, 0, 4))
	if len(cqes) != 1 || cqes[0].Token != (nic.PeerDown{Rank: 1}) || !errors.Is(cqes[0].Err, nic.ErrLinkDown) {
		t.Fatalf("CQEs = %+v, want PeerDown{1} with ErrLinkDown", cqes)
	}
	if err := links[0].PostSendInline(links[1].ID(), []byte("late"), 4); err == nil {
		t.Fatal("post after the verdict should error")
	}
}
