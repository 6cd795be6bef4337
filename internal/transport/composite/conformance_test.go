package composite_test

import (
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/nic"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
	"gompix/internal/transport/transporttest"
)

// world bundles the per-rank composite stacks of one test topology.
type world struct {
	nets []*composite.Network
	shms []*shm.Network // nil entries where the rank has no shm leg
}

// newWorld builds an N-rank composite world in-process: every rank
// gets its own TCP network plus — when nodeOf gives it a same-node
// peer — an shm network over one shared segment directory, both
// composed behind a composite.Network.
func newWorld(t *testing.T, ranks int, nodeOf func(rank int) int) (*world, *transporttest.World) {
	t.Helper()
	dir := t.TempDir()
	nodes := make([]int, ranks)
	for r := range nodes {
		nodes[r] = nodeOf(r)
	}
	cw := &world{nets: make([]*composite.Network, ranks), shms: make([]*shm.Network, ranks)}
	tcps := make([]*tcp.Network, ranks)
	addrs := make([]string, ranks)
	for r := 0; r < ranks; r++ {
		tn, err := tcp.New(tcp.Config{Rank: r, WorldSize: ranks, Epoch: 11})
		if err != nil {
			t.Fatal(err)
		}
		tcps[r] = tn
		addrs[r] = tn.Addr()

		var sameNode []int
		for p := 0; p < ranks; p++ {
			if p != r && nodes[p] == nodes[r] {
				sameNode = append(sameNode, p)
			}
		}
		var local composite.Leg
		if len(sameNode) > 0 {
			sn, err := shm.New(shm.Config{
				Rank: r, WorldSize: ranks, Epoch: 11, Dir: dir,
				Peers:         sameNode,
				Cells:         16, // force multi-cell chunking in InterleavedSizes
				CellPayload:   1024,
				ProbeInterval: 200 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			cw.shms[r] = sn
			local = sn
		}
		n, err := composite.New(composite.Config{Rank: r, WorldSize: ranks, NodeOf: nodes}, local, tn)
		if err != nil {
			t.Fatal(err)
		}
		n.SetCodec(nic.ByteCodec{})
		cw.nets[r] = n
	}
	w := &transporttest.World{
		Kill:    func(rank int) { cw.nets[rank].Kill() },
		Goodbye: func(rank int) { cw.nets[rank].Close() },
		Close: func() {
			for _, n := range cw.nets {
				n.Close()
			}
		},
	}
	links := make([]*composite.Link, ranks)
	for r := 0; r < ranks; r++ {
		tcps[r].SetPeerAddrs(addrs)
		l, err := cw.nets[r].AddLink(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		links[r] = l.(*composite.Link)
		w.Bind(links[r])
		w.Transports = append(w.Transports, cw.nets[r])
		if err := cw.nets[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.Progress = func() {
		for _, l := range links {
			l.Flush()
			l.PollRecv()
		}
	}
	return cw, w
}

// TestConformanceCompositeLocal: both ranks on one node — the shm leg
// carries all traffic while the idle TCP leg sits behind the facade.
func TestConformanceCompositeLocal(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	transporttest.Run(t, transporttest.Factory{
		Name: "composite-local",
		Caps: transporttest.Caps{PolledRecv: true, Failures: true, Goodbye: true},
		New: func(t *testing.T, ranks int) *transporttest.World {
			_, w := newWorld(t, ranks, func(int) int { return 0 })
			return w
		},
	})
}

// TestConformanceCompositeSplit: every rank on its own node — no shm
// legs exist and the composite degrades to a TCP passthrough,
// exercising the nil-local routing paths.
func TestConformanceCompositeSplit(t *testing.T) {
	transporttest.Run(t, transporttest.Factory{
		Name: "composite-split",
		Caps: transporttest.Caps{PolledRecv: true, Failures: true, Goodbye: true},
		New: func(t *testing.T, ranks int) *transporttest.World {
			_, w := newWorld(t, ranks, func(r int) int { return r })
			return w
		},
	})
}

// TestCompositeRouting: with two nodes of two ranks each, an intra-node
// frame must travel the shm leg and an inter-node frame the TCP leg —
// verified by the shm chunk counters, not just delivery.
func TestCompositeRouting(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	cw, w := newWorld(t, 4, func(r int) int { return r / 2 })
	t.Cleanup(w.Close)

	send := func(src, dst int, tag string) {
		t.Helper()
		msg := []byte(tag)
		if err := w.Links[src].PostSendInline(w.Links[dst].ID(), msg, len(msg)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for w.Links[dst].QueuedRQ() == 0 {
			w.Progress()
			if time.Now().After(deadline) {
				t.Fatalf("%s frame never arrived", tag)
			}
		}
		var scratch [4]fabric.Packet
		pkts := w.Links[dst].DrainRQ(scratch[:0])
		if len(pkts) != 1 || string(pkts[0].Payload.([]byte)) != tag {
			t.Fatalf("%s: bad delivery %+v", tag, pkts)
		}
	}

	send(0, 1, "intra") // ranks 0,1 share node 0
	if got := cw.shms[0].Stats().TxChunks; got == 0 {
		t.Fatal("intra-node frame did not travel the shm leg")
	}
	send(0, 2, "inter") // rank 2 lives on node 1
	if got := cw.shms[0].Stats().TxChunks; got != 1 {
		t.Fatalf("inter-node frame leaked onto the shm leg (TxChunks=%d)", got)
	}

	// The composite reports the launcher's placement to the MPI layer.
	for r, want := range []int{0, 0, 1, 1} {
		if got := cw.nets[0].NodeOf(r); got != want {
			t.Fatalf("NodeOf(%d) = %d, want %d", r, got, want)
		}
	}
}
