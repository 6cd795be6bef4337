package shm

import (
	"testing"
	"time"

	"gompix/internal/nic"
	"gompix/internal/transport/transporttest"
)

// newConformanceWorld builds an N-rank shm world in one process: every
// rank gets its own Network over one shared segment directory, exactly
// the per-OS-process wiring but with N mappings of the same files.
// flock is per open file description, so the liveness oracle behaves
// identically to real processes.
func newConformanceWorld(t *testing.T, ranks int) *transporttest.World {
	t.Helper()
	dir := t.TempDir()
	nets := make([]*Network, ranks)
	for r := 0; r < ranks; r++ {
		n, err := New(Config{
			Rank: r, WorldSize: ranks, Epoch: 11, Dir: dir,
			// Small cells force multi-cell chunking in the interleaved
			// sizes battery; fast probes keep the verdict test quick.
			Cells: 16, CellPayload: 1024,
			ProbeInterval: 200 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.SetCodec(nic.ByteCodec{})
		nets[r] = n
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
			if l.net.closed.Load() {
				continue
			}
			l.Flush()
			l.PollRecv()
		}
	}
	return w
}

// TestConformanceShm runs the transport conformance battery against
// the mmap shared-memory backend, including the failure-semantics
// subtests (verdict ordering via the flock liveness probe, graceful
// goodbye via the ring marker).
func TestConformanceShm(t *testing.T) {
	if !Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	transporttest.Run(t, transporttest.Factory{
		Name: "shm",
		Caps: transporttest.Caps{PolledRecv: true, Failures: true, Goodbye: true},
		New:  newConformanceWorld,
	})
}
