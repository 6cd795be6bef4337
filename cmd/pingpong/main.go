// pingpong is an osu_latency/osu_bw-style micro-benchmark: per-size
// round-trip latency and streaming bandwidth, on any transport. It
// exercises every message mode of the paper's Figure 1 as the size
// sweep crosses the protocol thresholds.
//
// Usage:
//
//	pingpong                 # latency sweep, simulated inter-node fabric
//	pingpong -shm            # both ranks on one simulated node (the fabric's local hop)
//	pingpong -bw             # streaming bandwidth instead of latency
//	pingpong -iters 2000     # samples per size
//
// Under mpixrun it runs as one OS process per rank over TCP loopback,
// ranks pairing up (0-1, 2-3, ...); each even rank reports its pair:
//
//	mpixrun -n 4 ./cmd/pingpong -iters 100
package main

import (
	"flag"
	"fmt"
	"os"

	"gompix/internal/mpi"
	"gompix/internal/stats"
	"gompix/mpix"
)

func main() {
	shm := flag.Bool("shm", false, "place both ranks on one simulated node (Fabric.LocalLatency apart)")
	bw := flag.Bool("bw", false, "measure streaming bandwidth instead of latency")
	iters := flag.Int("iters", 500, "iterations per message size")
	window := flag.Int("window", 16, "in-flight messages per bandwidth window")
	flag.Parse()

	sizes := []int{0, 1, 8, 64, 256, 1024, 4096, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024}

	var w *mpix.World
	transport := "sim fabric (inter-node)"
	if mpix.Launched() {
		var err error
		w, err = mpix.NewWorldFromEnv()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pingpong: %v\n", err)
			os.Exit(1)
		}
		transport = "tcp (multiprocess)"
	} else {
		perNode := 1
		if *shm {
			perNode = 2
			transport = "sim fabric (same-node)"
		}
		w = mpix.NewWorld(mpix.WithRanks(2), mpix.WithProcsPerNode(perNode))
	}
	w.Run(func(p *mpi.Proc) {
		comm := p.CommWorld()
		// Ranks pair up: 0-1, 2-3, ... With an odd world size the last
		// rank has no partner and only joins the barriers.
		peer := p.Rank() ^ 1
		idle := peer >= p.Size()
		if p.Rank() == 0 {
			mode := "latency"
			if *bw {
				mode = "bandwidth"
			}
			fmt.Printf("# gompix pingpong — %s, %s, %d ranks, %d iters\n", mode, transport, p.Size(), *iters)
			if *bw {
				fmt.Printf("%12s %14s\n", "bytes", "MB/s")
			} else {
				fmt.Printf("%12s %12s %12s %12s\n", "bytes", "p50 us", "mean us", "p99 us")
			}
		}
		for _, size := range sizes {
			buf := make([]byte, size)
			comm.Barrier()
			if idle {
				continue
			}
			if *bw {
				runBandwidth(p, comm, peer, buf, *iters, *window)
			} else {
				runLatency(p, comm, peer, buf, *iters)
			}
		}
	})
}

func runLatency(p *mpi.Proc, comm *mpi.Comm, peer int, buf []byte, iters int) {
	sum := stats.NewSummary(0)
	lead := p.Rank()%2 == 0 // even rank drives and reports its pair
	for i := 0; i < iters; i++ {
		if lead {
			t0 := p.Wtime()
			comm.SendBytes(buf, peer, 0)
			comm.RecvBytes(buf, peer, 0)
			sum.Add((p.Wtime() - t0) * 1e6 / 2)
		} else {
			comm.RecvBytes(buf, peer, 0)
			comm.SendBytes(buf, peer, 0)
		}
	}
	if lead {
		fmt.Printf("%12d %12.3f %12.3f %12.3f\n",
			len(buf), sum.Median(), sum.Mean(), sum.Percentile(99))
	}
}

func runBandwidth(p *mpi.Proc, comm *mpi.Comm, peer int, buf []byte, iters, window int) {
	lead := p.Rank()%2 == 0 // even rank drives and reports its pair
	if len(buf) == 0 {
		if lead {
			fmt.Printf("%12d %14s\n", 0, "-")
		}
		return
	}
	rounds := iters / window
	if rounds == 0 {
		rounds = 1
	}
	var elapsed float64
	for r := 0; r < rounds; r++ {
		if lead {
			t0 := p.Wtime()
			reqs := make([]*mpi.Request, window)
			for i := range reqs {
				reqs[i] = comm.IsendBytes(buf, peer, 1)
			}
			mpi.WaitAll(reqs...)
			ackBuf := make([]byte, 1)
			comm.RecvBytes(ackBuf, peer, 2)
			elapsed += p.Wtime() - t0
		} else {
			reqs := make([]*mpi.Request, window)
			for i := range reqs {
				reqs[i] = comm.IrecvBytes(buf, peer, 1)
			}
			mpi.WaitAll(reqs...)
			comm.SendBytes([]byte{1}, peer, 2)
		}
	}
	if lead {
		bytes := float64(len(buf)) * float64(window) * float64(rounds)
		fmt.Printf("%12d %14.1f\n", len(buf), bytes/elapsed/1e6)
	}
}
