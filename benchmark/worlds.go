package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gompix/internal/transport"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
	"gompix/mpix"
)

// A cluster is one MPI job inside this process, built the way
// mpix/matrix_test.go builds its transports: for the real backends one
// World per rank, each on its own goroutine, every world built before
// any rank runs, one shared shm directory and epoch; for the simulated
// fabric one World hosting every rank. Traffic crosses the host's
// loopback interface or mmap'd files under the scratch directory, never
// a real link.

type backend string

const (
	backendSim     backend = "sim"      // simulated fabric, every rank on its own node
	backendSimNode backend = "sim-node" // simulated world, every rank on one node: the in-process shmem rings
	backendTCP     backend = "tcp"      // tcp loopback alone
	backendShm     backend = "shm"      // composite(shm,tcp), every rank on node 0
	backend2x2     backend = "2x2"      // composite(shm,tcp), NodeOf = rank/2
)

type cluster struct {
	worlds []*mpix.World
	tcps   []*tcp.Network
	shms   []*shm.Network
}

// epochSeq keeps the jobs of one process apart: tcp refuses connections
// from another epoch, shm names its job directory after it.
var epochSeq atomic.Uint64

func nextEpoch() uint64 { return uint64(os.Getpid())<<20 | epochSeq.Add(1) }

// buildCluster creates the transports and worlds of an n-rank job. reg
// may be nil; scratch is the directory shm segments live in.
func buildCluster(b backend, n int, seed uint64, reg *mpix.MetricsRegistry, scratch string) (*cluster, error) {
	c := &cluster{}
	if b == backendSim || b == backendSimNode {
		ppn := 1
		if b == backendSimNode {
			ppn = n
		}
		c.worlds = []*mpix.World{mpix.NewWorld(mpix.Config{
			Procs: n, ProcsPerNode: ppn,
			Fabric:  mpix.FabricConfig{Seed: int64(seed | 1)},
			Metrics: reg,
		})}
		return c, nil
	}
	nodes := make([]int, n)
	if b == backend2x2 {
		for r := range nodes {
			nodes[r] = r / 2
		}
	}
	epoch := nextEpoch()
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		tn, err := tcp.New(tcp.Config{Rank: r, WorldSize: n, Epoch: epoch})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("tcp transport rank %d: %w", r, err)
		}
		c.tcps = append(c.tcps, tn)
		addrs[r] = tn.Addr()
	}
	trs := make([]transport.Transport, n)
	for r := 0; r < n; r++ {
		c.tcps[r].SetPeerAddrs(addrs)
		trs[r] = c.tcps[r]
		if b == backendTCP {
			continue
		}
		var peers []int
		for p := 0; p < n; p++ {
			if p != r && nodes[p] == nodes[r] {
				peers = append(peers, p)
			}
		}
		sn, err := shm.New(shm.Config{Rank: r, WorldSize: n, Epoch: epoch, Dir: scratch, Peers: peers})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("shm transport rank %d: %w", r, err)
		}
		c.shms = append(c.shms, sn)
		cn, err := composite.New(composite.Config{Rank: r, WorldSize: n, NodeOf: nodes}, sn, c.tcps[r])
		if err != nil {
			c.close()
			return nil, fmt.Errorf("composite transport rank %d: %w", r, err)
		}
		trs[r] = cn
	}
	// Every world exists before any rank runs: a running rank can
	// deliver frames to a peer whose codec is not installed yet.
	for r := 0; r < n; r++ {
		opts := []mpix.Option{mpix.WithRanks(n), mpix.WithRank(r), mpix.WithTransport(trs[r])}
		if reg != nil {
			opts = append(opts, mpix.WithMetrics(reg))
		}
		c.worlds = append(c.worlds, mpix.NewWorld(opts...))
	}
	return c, nil
}

// close releases transports of a cluster that never ran.
func (c *cluster) close() {
	for _, w := range c.worlds {
		w.Close()
	}
	for _, s := range c.shms {
		s.Close()
	}
	for _, t := range c.tcps {
		t.Close()
	}
}

// run executes fn on every rank and returns once every rank has
// finalized and its world is closed. A panicking rank is reported as an
// error naming the rank.
func (c *cluster) run(fn func(p *mpix.Proc)) error {
	errs := make([]error, len(c.worlds))
	var wg sync.WaitGroup
	for i, w := range c.worlds {
		wg.Add(1)
		go func(i int, w *mpix.World) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs[i] = fmt.Errorf("world %d: %v", i, e)
				}
			}()
			w.Run(fn)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// scratchDir creates the run's private directory under the checkout's
// build directory; shm segments and the trace file live there.
func scratchDir() (string, error) {
	dir := filepath.Join(".bench_build", "gompix-bench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
