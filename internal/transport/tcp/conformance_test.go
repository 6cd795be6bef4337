package tcp

import (
	"testing"

	"gompix/internal/nic"
	"gompix/internal/transport/transporttest"
)

// newConformanceWorld builds an N-rank TCP world in-process: every rank
// gets its own Network (bind :0, exchanged addresses) and one VCI-0
// link, mirroring what mpixrun wires per OS process.
func newConformanceWorld(t *testing.T, ranks int) *transporttest.World {
	t.Helper()
	nets := make([]*Network, ranks)
	addrs := make([]string, ranks)
	for r := 0; r < ranks; r++ {
		n, err := New(Config{Rank: r, WorldSize: ranks, Epoch: 11})
		if err != nil {
			t.Fatal(err)
		}
		n.SetCodec(nic.ByteCodec{})
		nets[r] = n
		addrs[r] = n.Addr()
	}
	w := &transporttest.World{
		Kill:    func(rank int) { nets[rank].Kill() },
		Goodbye: func(rank int) { nets[rank].Close() },
		Close: func() {
			for _, n := range nets {
				n.Close()
			}
		},
	}
	links := make([]*Link, ranks)
	for r := 0; r < ranks; r++ {
		nets[r].SetPeerAddrs(addrs)
		l, err := nets[r].AddLink(r, 0)
		if err != nil {
			t.Fatal(err)
		}
		links[r] = l.(*Link)
		w.Bind(links[r])
		w.Transports = append(w.Transports, nets[r])
		if err := nets[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	w.Progress = func() {
		for _, l := range links {
			l.Flush()
			l.PollRecv()
		}
	}
	return w
}

// TestConformanceTCP runs the transport conformance battery against
// the reactor-based TCP backend, including the failure-semantics
// subtests (verdict ordering, graceful goodbye).
func TestConformanceTCP(t *testing.T) {
	transporttest.Run(t, transporttest.Factory{
		Name: "tcp",
		Caps: transporttest.Caps{PolledRecv: true, Failures: true, Goodbye: true},
		New:  newConformanceWorld,
	})
}
