package tcp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// stressWorld is an in-process N-rank × M-VCI TCP topology: one
// Network per rank, one link per (rank, vci).
type stressWorld struct {
	nets  []*Network
	links [][]*Link // [rank][vci]
}

func newStressWorld(t *testing.T, ranks, vcis int) *stressWorld {
	t.Helper()
	w := &stressWorld{nets: make([]*Network, ranks), links: make([][]*Link, ranks)}
	addrs := make([]string, ranks)
	for r := 0; r < ranks; r++ {
		n, err := New(Config{Rank: r, WorldSize: ranks, Epoch: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetCodec(nic.ByteCodec{})
		w.nets[r] = n
		addrs[r] = n.Addr()
	}
	for r := 0; r < ranks; r++ {
		w.nets[r].SetPeerAddrs(addrs)
		w.links[r] = make([]*Link, vcis)
		for v := 0; v < vcis; v++ {
			l, err := w.nets[r].AddLink(r, v)
			if err != nil {
				t.Fatal(err)
			}
			w.links[r][v] = l.(*Link)
		}
		if err := w.nets[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// progress runs one caller-thread pass over every rank: flush pending
// output, poll sockets. One PollRecv per rank suffices — it drains
// every connection of that rank's Network regardless of which link it
// is called through.
func (w *stressWorld) progress() {
	for r := range w.links {
		for _, l := range w.links[r] {
			l.Flush()
		}
		w.links[r][0].PollRecv()
	}
}

// stressSize draws a frame size from a seeded stream-local generator:
// mostly small frames with a heavy tail deliberately straddling the
// output segment size (32K) and the rendezvous chunk (64K), so
// coalescing, segment sealing, partial parses and buffer growth all
// trigger.
func stressSize(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return 32<<10 - 16 + rng.Intn(32) // hugs the out-queue's 32K segment boundary
	case 1:
		return 32<<10 + rng.Intn(64<<10) // up to 96K
	default:
		return 4 + rng.Intn(60)
	}
}

// stressMsg carries [seq u32][fill derived from (stream, seq)].
func stressMsg(stream uint32, seq uint32, size int) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint32(b, seq)
	for i := 4; i < size; i++ {
		b[i] = byte(stream*131 + seq + uint32(i)*31)
	}
	return b
}

func checkStressMsg(stream uint32, seq uint32, size int, p fabric.Packet) error {
	b, ok := p.Payload.([]byte)
	if !ok {
		return fmt.Errorf("stream %d seq %d: payload %T", stream, seq, p.Payload)
	}
	if len(b) != size {
		return fmt.Errorf("stream %d seq %d: %d bytes, want %d", stream, seq, len(b), size)
	}
	if got := binary.LittleEndian.Uint32(b); got != seq {
		return fmt.Errorf("stream %d: seq %d arrived where %d expected (reorder or loss)", stream, got, seq)
	}
	for i := 4; i < len(b); i++ {
		if b[i] != byte(stream*131+seq+uint32(i)*31) {
			return fmt.Errorf("stream %d seq %d: corrupt byte at %d", stream, seq, i)
		}
	}
	return nil
}

// TestReactorStress: every (rank, vci) streams seeded random-size
// frames to every other rank's same-VCI link, all posts from sender
// goroutines while the main thread drives progress. Every stream must
// arrive complete, in order, uncorrupted — no losses, duplicates or
// reorders across segment-boundary coalescing, jumbo frames and
// concurrent multi-VCI traffic on shared per-peer connections.
func TestReactorStress(t *testing.T) {
	const (
		ranks  = 3
		vcis   = 2
		frames = 120
	)
	w := newStressWorld(t, ranks, vcis)

	// streamID ↔ (src rank, src vci, dst rank); receivers key arrivals
	// by (receiving link, source endpoint).
	streamID := func(sr, sv, dr int) uint32 {
		return uint32((sr*vcis+sv)*ranks + dr)
	}
	type senderr struct{ err error }
	errc := make(chan senderr, ranks*vcis)
	sizes := make(map[uint32][]int) // pre-drawn so the verifier agrees
	for sr := 0; sr < ranks; sr++ {
		for sv := 0; sv < vcis; sv++ {
			for dr := 0; dr < ranks; dr++ {
				if dr == sr {
					continue
				}
				id := streamID(sr, sv, dr)
				rng := rand.New(rand.NewSource(int64(id) + 7001))
				s := make([]int, frames)
				for i := range s {
					s[i] = stressSize(rng)
				}
				sizes[id] = s
			}
		}
	}
	for sr := 0; sr < ranks; sr++ {
		for sv := 0; sv < vcis; sv++ {
			src := w.links[sr][sv]
			sr, sv := sr, sv
			go func() {
				for i := 0; i < frames; i++ {
					for dr := 0; dr < ranks; dr++ {
						if dr == sr {
							continue
						}
						id := streamID(sr, sv, dr)
						size := sizes[id][i]
						dst := w.links[dr][sv].ID()
						if err := src.PostSendInline(dst, stressMsg(id, uint32(i), size), size); err != nil {
							errc <- senderr{fmt.Errorf("stream %d seq %d: %w", id, i, err)}
							return
						}
					}
				}
				errc <- senderr{}
			}()
		}
	}

	// Drain everything: per receiving link, track next expected seq per
	// source endpoint and verify in place.
	type rxKey struct {
		dr, dv int
		src    fabric.EndpointID
	}
	next := make(map[rxKey]uint32)
	epOf := make(map[fabric.EndpointID][2]int) // endpoint → (rank, vci)
	for r := 0; r < ranks; r++ {
		for v := 0; v < vcis; v++ {
			epOf[w.links[r][v].ID()] = [2]int{r, v}
		}
	}
	total := ranks * vcis * (ranks - 1) * frames
	received := 0
	scratch := make([]fabric.Packet, 256)
	deadline := time.Now().Add(30 * time.Second)
	senders := 0
	for received < total {
		select {
		case e := <-errc:
			if e.err != nil {
				t.Fatal(e.err)
			}
			senders++
		default:
		}
		w.progress()
		for dr := 0; dr < ranks; dr++ {
			for dv := 0; dv < vcis; dv++ {
				for _, p := range w.links[dr][dv].DrainRQ(scratch[:0]) {
					srcLoc, ok := epOf[p.Src]
					if !ok {
						t.Fatalf("frame from unknown endpoint %d", p.Src)
					}
					if srcLoc[1] != dv {
						t.Fatalf("VCI cross-talk: link (%d,%d) got frame from (%d,%d)", dr, dv, srcLoc[0], srcLoc[1])
					}
					id := streamID(srcLoc[0], srcLoc[1], dr)
					k := rxKey{dr, dv, p.Src}
					seq := next[k]
					if seq >= frames {
						t.Fatalf("stream %d: duplicate/spurious frame past end (seq %d)", id, seq)
					}
					if err := checkStressMsg(id, seq, sizes[id][seq], p); err != nil {
						t.Fatal(err)
					}
					next[k] = seq + 1
					received++
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: received %d of %d frames", received, total)
		}
	}
	for senders < ranks*vcis {
		e := <-errc
		if e.err != nil {
			t.Fatal(e.err)
		}
		senders++
	}
	for k, n := range next {
		if n != frames {
			t.Fatalf("receiver %v: stream truncated at %d of %d", k, n, frames)
		}
	}
}

// freelistCodec is a deterministic allocation-free codec for the
// steady-state alloc gate: Decode pops pre-sized buffers off an owned
// freelist (no sync.Pool — pools can legitimately miss and allocate),
// and verified payloads are handed back via put. Payloads travel as
// *[]byte: a pointer rides in an interface word without boxing,
// whereas an `any` holding a slice header heap-allocates the header on
// every conversion — the same reason the MPI layer's payloads are
// pointer-shaped (*relFrame, *wireMsg).
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

// TestReactorSteadyStateAllocs: once warmed up, a full inline
// round-trip — post, coalesced flush, reactor ingest on the polling
// thread, RQ drain — performs zero heap allocations on either side.
// Decode buffers come from the test's freelist (codecs own payload
// lifetime); everything else (segments, read buffers, frame queues,
// delivery runs) must be reused by the transport itself.
func TestReactorSteadyStateAllocs(t *testing.T) {
	if !hasNonblockRead {
		t.Skip("no raw-descriptor reactor on this platform")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in non-race CI passes")
	}
	nets := make([]*Network, 2)
	addrs := make([]string, 2)
	codecs := [2]*freelistCodec{{}, {}}
	for r := 0; r < 2; r++ {
		n, err := New(Config{Rank: r, WorldSize: 2, Epoch: 5})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.SetCodec(codecs[r])
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
	msg := make([]byte, 64)
	payload := &msg // pre-boxed: a fresh any-of-slice would allocate per post
	scratch := make([]fabric.Packet, 8)
	var cqScratch [8]nic.CQE
	roundTrip := func(src, dst *Link, c *freelistCodec) {
		if err := src.PostSendInline(dst.ID(), payload, len(msg)); err != nil {
			t.Fatal(err)
		}
		src.Flush()
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
