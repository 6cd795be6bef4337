package mpi

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/reduceop"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
)

// shmWorlds builds an n-rank multiprocess-mode job over the shared-memory
// transport alone, inside one test process: every rank reaches every
// other over the rings, and no tcp leg exists.
func shmWorlds(t *testing.T, n int, cfg Config) []*World {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport not supported on this platform")
	}
	dir := t.TempDir()
	worlds := make([]*World, n)
	for r := range worlds {
		sn, err := shm.New(shm.Config{Rank: r, WorldSize: n, Epoch: 11, Dir: dir, ProbeInterval: 500 * time.Microsecond})
		if err != nil {
			t.Fatalf("shm.New rank %d: %v", r, err)
		}
		c := cfg
		c.Procs, c.Rank, c.Transport = n, r, sn
		worlds[r] = NewWorld(c)
	}
	return worlds
}

// TestRemoteTopoNodeOf: the placement the hierarchical collectives are
// chosen from, per kind of world. A transport that knows where ranks run
// answers with it — the sim fabric's node map, the composite's host map —
// and tcp or shm alone, knowing none, put every rank on a node of its
// own, where the two-level algorithms are never worthwhile. Every rank
// must see the same map and the same choice, and the allreduce that
// choice selects must add up.
func TestRemoteTopoNodeOf(t *testing.T) {
	const n = 4
	cases := []struct {
		kind  string
		nodes []int
		hier  bool
		run   func(t *testing.T, fn func(*Proc))
	}{
		{"sim-1node", []int{0, 0, 0, 0}, false, func(t *testing.T, fn func(*Proc)) {
			run2(t, Config{Procs: n, ProcsPerNode: n}, fn)
		}},
		{"sim-2x2", []int{0, 0, 1, 1}, true, func(t *testing.T, fn func(*Proc)) {
			run2(t, Config{Procs: n, ProcsPerNode: 2}, fn)
		}},
		{"tcp", []int{0, 1, 2, 3}, false, func(t *testing.T, fn func(*Proc)) {
			runRemote(t, tcpWorlds(t, n, Config{}), fn)
		}},
		{"shm", []int{0, 1, 2, 3}, false, func(t *testing.T, fn func(*Proc)) {
			runRemote(t, shmWorlds(t, n, Config{}), fn)
		}},
		{"composite-2x2", []int{0, 0, 1, 1}, true, func(t *testing.T, fn func(*Proc)) {
			worlds, _ := compositeWorlds(t, n, []int{0, 0, 1, 1}, Config{}, tcp.Config{})
			runRemote(t, worlds, fn)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			tc.run(t, func(p *Proc) {
				nodes := make([]int, n)
				for r := range nodes {
					nodes[r] = p.world.TopoNodeOf(r)
				}
				if !slices.Equal(nodes, tc.nodes) {
					panic(fmt.Sprintf("rank %d: TopoNodeOf = %v, want %v", p.Rank(), nodes, tc.nodes))
				}
				comm := p.CommWorld()
				if got := comm.hier() != nil; got != tc.hier {
					panic(fmt.Sprintf("rank %d: hierarchical collectives %v, want %v", p.Rank(), got, tc.hier))
				}
				in, out := reduceop.EncodeFloat64s([]float64{float64(p.Rank())}), make([]byte, 8)
				comm.Allreduce(in, out, 1, datatype.Float64, reduceop.Sum)
				if got := reduceop.DecodeFloat64s(out)[0]; got != 6 {
					panic(fmt.Sprintf("rank %d: allreduce = %v, want 6", p.Rank(), got))
				}
			})
		})
	}
}
