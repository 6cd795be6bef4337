package transporttest

import (
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
				w.Bind(nic.NewReliable(l, nic.ByteCodec{}, nic.RelConfig{RTO: time.Minute}))
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
