package transporttest

import (
	"errors"
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/transport"
)

// TestConformanceSim runs the suite against the in-process simulated
// fabric in real-clock mode (the dispatch goroutine delivers, matching
// how concurrent tests would see it under -race), its endpoints on the
// []byte codec the byte transports' suites install. Sim has no process
// boundary, so the failure-semantics subtests are skipped.
func TestConformanceSim(t *testing.T) {
	Run(t, Factory{
		Name: "sim",
		New: func(t *testing.T, ranks int) *World {
			sim := transport.NewSim(fabric.NewNetwork(nil, fabric.Config{}), func(r int) int { return r })
			sim.SetCodec(nic.ByteCodec{})
			w := &World{Close: func() { sim.Close() }}
			for r := 0; r < ranks; r++ {
				l, err := sim.AddLink(r, 0)
				if err != nil {
					t.Fatal(err)
				}
				w.Bind(l)
				w.Transports = append(w.Transports, sim)
			}
			return w
		},
	})
}

// TestConformanceSimReliable runs the suite against the reliability
// layer: a nic.Reliable around each simulated endpoint, the transport
// on the layer's envelope codec around the []byte codec, and Progress
// driving every link's Flush, where the layer absorbs acknowledgements
// and runs its retransmission timer. The fabric is clean and the
// timeout far beyond any wait of the suite, so nothing is retransmitted
// (a duplicate would count in QueuedRQ as an arrival until absorbed).
func TestConformanceSimReliable(t *testing.T) {
	Run(t, Factory{
		Name: "sim+reliable",
		Caps: Caps{Acked: true},
		New: func(t *testing.T, ranks int) *World {
			sim := transport.NewSim(fabric.NewNetwork(nil, fabric.Config{}), func(r int) int { return r })
			sim.SetCodec(nic.RelCodec(nic.ByteCodec{}))
			w := &World{Close: func() { sim.Close() }}
			for r := 0; r < ranks; r++ {
				l, err := sim.AddLink(r, 0)
				if err != nil {
					t.Fatal(err)
				}
				w.Bind(nic.NewReliable(l, nic.ByteCodec{}, sim.RankOfEndpoint, nic.RelConfig{RTO: time.Minute}))
				w.Transports = append(w.Transports, sim)
			}
			w.Progress = func() {
				for _, l := range w.Links {
					l.Flush()
				}
			}
			return w
		},
	})
}

// countingCodec is nic.ByteCodec that counts the payloads it encodes.
type countingCodec struct {
	nic.ByteCodec
	n *int
}

func (c countingCodec) Encode(buf []byte, payload any) ([]byte, error) {
	*c.n++
	return c.ByteCodec.Encode(buf, payload)
}

// TestSimSetCodecReachesEveryLink: the codec Sim.SetCodec installs is
// the one every endpoint's posts cross, whether the endpoint was added
// before the call or after it.
func TestSimSetCodecReachesEveryLink(t *testing.T) {
	net := fabric.NewNetwork(nil, fabric.Config{})
	sim := transport.NewSim(net, func(r int) int { return r })
	defer sim.Close()
	before, err := sim.AddLink(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	sim.SetCodec(countingCodec{n: &n})
	after, err := sim.AddLink(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range []nic.Link{before, after} {
		if err := l.PostSendInline(l.ID(), []byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Fatalf("link %d's post crossed the installed codec %d times in all, want %d", i, n, i+1)
		}
	}
}

// TestSimPartitionVerdict: a post that crosses a partition that never
// heals is the sim's liveness evidence, and the transport reports it
// as the byte transports report theirs — one nic.PeerDown{peer} on each
// of the posting rank's links, wrapping nic.ErrLinkDown, the first
// time only, and on a link the rank adds later. A cut of the way back
// alone is the same evidence: the peer's acknowledgements can never
// arrive. A partition that heals is an outage, never a verdict.
func TestSimPartitionVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src, dst int // the partition's nodes (node = rank)
		until    time.Duration
		want     int // verdicts per link of rank 0
	}{
		{"permanent", 0, 1, 0, 1},
		{"way-back", 1, 0, 0, 1},
		{"heals", 0, 1, time.Hour, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := fabric.NewNetwork(nil, fabric.Config{Faults: fabric.FaultConfig{
				Partitions: []fabric.Partition{{SrcNode: tc.src, DstNode: tc.dst, Until: tc.until}},
			}})
			sim := transport.NewSim(net, func(r int) int { return r })
			defer sim.Close()
			var links []nic.Link // rank 0's two links, then rank 1's
			for _, rv := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
				l, err := sim.AddLink(rv[0], rv[1])
				if err != nil {
					t.Fatal(err)
				}
				links = append(links, l)
			}
			for post := 1; post <= 2; post++ {
				if err := links[0].PostSendInline(links[2].ID(), []byte{1}, 1); err != nil {
					t.Fatalf("post %d: %v", post, err)
				}
				for i, l := range links[:2] {
					if n := l.QueuedCQ(); n != tc.want {
						t.Fatalf("after post %d, rank 0's link %d holds %d completions, want %d", post, i, n, tc.want)
					}
				}
			}
			late, err := sim.AddLink(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if n := late.QueuedCQ(); n != tc.want {
				t.Fatalf("rank 0's link added after the post holds %d completions, want %d", n, tc.want)
			}
			for i, l := range append(links[:2:2], late) {
				for _, c := range l.DrainCQ(make([]nic.CQE, 0, 4)) {
					if v, ok := c.Token.(nic.PeerDown); !ok || v.Rank != 1 || !errors.Is(c.Err, nic.ErrLinkDown) {
						t.Fatalf("link %d: CQE %+v, want PeerDown{1} wrapping nic.ErrLinkDown", i, c)
					}
				}
			}
			if n := links[2].QueuedCQ(); n != 0 {
				t.Fatalf("rank 1 holds %d completions: the verdict goes to the posting rank", n)
			}
		})
	}
}
