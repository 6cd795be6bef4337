package bench

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/fabric"
	"gompix/internal/launch"
	"gompix/internal/mpi"
	"gompix/internal/reduceop"
	"gompix/internal/stats"
	"gompix/internal/transport"
	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/internal/transport/tcp"
)

// This file implements the eager-SGD training workload behind
// `progressbench -workload eagersgd`: the headline demo of the relaxed
// allreduce (Shigangli/eager-SGD on fflib2's MPI progresser,
// reproduced on gompix). Every rank runs a simulated data-parallel SGD
// loop — compute a gradient, allreduce it, apply the update — with
// injected per-rank delay spikes playing the role of stragglers
// (garbage collection, OS jitter, a slow batch). The synchronous mode
// averages with Iallreduce and therefore pays every straggler's spike
// on every rank every step; the eager mode uses IallreduceRelaxed with
// a majority quorum and a sub-millisecond staleness bound, so a spiked
// rank only ever delays itself. The delta between the paired steps/s
// rates is the figure: sync throughput collapses to the slowest rank,
// eager degrades by roughly its own spike probability.

// SGDWorld is the eagersgd training world size, exported for the
// multiprocess driver in cmd/progressbench (it spawns this many OS
// processes per measurement).
const SGDWorld = sgdWorld

const (
	// sgdWorld is the training world size (and the N of the
	// eagerN/syncN gate keys).
	sgdWorld = 4

	// sgdGradElems is the per-rank gradient length (float64): 4 KiB on
	// the wire, inside the eager path.
	sgdGradElems = 512

	// sgdSpikeProb / sgdSpikeDelay inject the straggler: each rank's
	// gradient computation stalls this long with this probability,
	// from a per-rank seeded stream (deterministic across modes, so
	// the paired comparison sees identical spike schedules).
	sgdSpikeProb  = 0.2
	sgdSpikeDelay = 25 * time.Millisecond

	// sgdStaleness is the eager mode's grace period after quorum.
	sgdStaleness = 500 * time.Microsecond
)

// sgdConfig shapes one training run.
type sgdConfig struct {
	mode      string // "eager" or "sync"
	steps     int
	spikeProb float64
	spike     time.Duration
	seed      int64
	// killStep, when >= 0, makes rank Size-1 exit the whole process at
	// that step — the kill-a-rank chaos scenario (multiprocess runs
	// only). Survivors must keep training.
	killStep int
}

// eagerSGDBody runs the training loop on one rank and returns rank 0's
// steps/second (0 elsewhere).
func eagerSGDBody(p *mpi.Proc, cfg sgdConfig) (float64, error) {
	comm := p.CommWorld()
	n := comm.Size()
	grad := make([]float64, sgdGradElems)
	weights := make([]float64, sgdGradElems)
	rng := rand.New(rand.NewSource(cfg.seed + int64(p.Rank())*1019))
	// Partial allreduce, eager-SGD style: settle on self plus whichever
	// half of the world answers first, so a step only ever blocks when
	// half the peers spike at once. Averaging stays unbiased because the
	// update is scaled by the actual contribution count.
	quorum := n / 2
	if quorum < 1 {
		quorum = 1
	}
	opt := mpi.RelaxedOptions{Quorum: quorum, Staleness: sgdStaleness}
	out := make([]byte, len(reduceop.EncodeFloat64s(grad)))
	comm.Barrier()
	start := time.Now()
	for step := 0; step < cfg.steps; step++ {
		if cfg.killStep >= 0 && p.Rank() == n-1 && step == cfg.killStep {
			os.Exit(7) // the chaos kill: no goodbye, peers get the verdict
		}
		// The "gradient computation": deterministic values plus the
		// injected straggler spike.
		for i := range grad {
			grad[i] = float64(p.Rank()+1) * float64(step%7+1)
		}
		if rng.Float64() < cfg.spikeProb {
			time.Sleep(cfg.spike)
		}
		in := reduceop.EncodeFloat64s(grad)
		var avg []float64
		var scale float64
		switch cfg.mode {
		case "eager":
			rr := comm.IallreduceRelaxed(in, out, sgdGradElems, datatype.Float64, reduceop.Sum, opt)
			if st := rr.Wait(); st.Err != nil {
				return 0, fmt.Errorf("eagersgd: rank %d step %d: %w", p.Rank(), step, st.Err)
			}
			// Average over whoever actually contributed — the round
			// status says exactly how many (and res.Err reports a dead
			// peer without condemning the round).
			avg = reduceop.DecodeFloat64s(out)
			scale = 1 / float64(rr.Result().Contributions)
		case "sync":
			if st := comm.Iallreduce(in, out, sgdGradElems, datatype.Float64, reduceop.Sum).Wait(); st.Err != nil {
				return 0, fmt.Errorf("eagersgd: rank %d step %d: %w", p.Rank(), step, st.Err)
			}
			avg = reduceop.DecodeFloat64s(out)
			scale = 1 / float64(n)
		default:
			return 0, fmt.Errorf("eagersgd: unknown mode %q", cfg.mode)
		}
		for i := range weights {
			weights[i] -= 0.01 * avg[i] * scale
		}
	}
	if p.Rank() == 0 {
		return float64(cfg.steps) / time.Since(start).Seconds(), nil
	}
	return 0, nil
}

// eagerSGDAt runs one in-process (simulated fabric) training run and
// returns rank 0's steps/s. The fabric adds its own delay-spike faults
// on top of the compute spikes, so the network contributes stragglers
// too, not just the application.
func eagerSGDAt(o Options, steps int, mode string, seed int64) float64 {
	var rate float64
	var err error
	w := mpi.NewWorld(mpi.Config{
		Procs:        sgdWorld,
		ProcsPerNode: 1,
		// The compute spikes (25ms) dwarf the default retransmission
		// budget (~50x fabric latency): a spiked rank stops ACKing and
		// its links get condemned mid-step. A budget above the spike
		// keeps the reliability layer from mistaking stragglers for
		// crashes — which is the workload's whole point.
		RetxTimeout: 10 * time.Millisecond,
		Fabric: fabric.Config{
			Faults: fabric.FaultConfig{DelayProb: 0.01, Delay: 2 * time.Millisecond, Seed: seed + 1},
		},
	})
	w.Run(func(p *mpi.Proc) {
		r, e := eagerSGDBody(p, sgdConfig{
			mode: mode, steps: steps,
			spikeProb: sgdSpikeProb, spike: sgdSpikeDelay,
			seed: seed, killStep: -1,
		})
		if p.Rank() == 0 {
			rate, err = r, e
		}
	})
	if err != nil {
		panic(err)
	}
	return rate
}

// sgdSteps returns the per-run step count.
func sgdSteps(o Options) int {
	if o.Quick {
		return 15
	}
	return 40
}

// EagerSGD runs the paired eager-vs-sync training comparison on the
// simulated fabric — the workload behind `progressbench -workload
// eagersgd` and the eager4/sync4 keys in BENCH_progress.json. The
// modes are measured PAIRED (each repetition runs both back-to-back
// with the same spike seed) so the gate compares the collectives under
// the identical straggler schedule.
func EagerSGD(o Options) *stats.Figure {
	fig := stats.NewFigure("eagersgd",
		"data-parallel SGD steps/s under injected delay spikes: relaxed (quorum+staleness) vs synchronous allreduce")
	eg := fig.NewSeries("eager", "ranks", "steps/s")
	sy := fig.NewSeries("sync", "ranks", "steps/s")
	steps := sgdSteps(o)
	runs := 3
	if o.Quick {
		runs = 2
	}
	var bestE, bestS float64
	for r := 0; r < runs; r++ {
		seed := int64(1000 + 77*r)
		if v := eagerSGDAt(o, steps, "eager", seed); v > bestE {
			bestE = v
		}
		if v := eagerSGDAt(o, steps, "sync", seed); v > bestS {
			bestS = v
		}
	}
	eg.AddXY(sgdWorld, bestE)
	sy.AddXY(sgdWorld, bestS)
	return fig
}

// EagerSGDCSV renders an EagerSGD figure as the benchjson CSV block
// with the paired gate keys eagerN/syncN.
func EagerSGDCSV(fig *stats.Figure) string {
	keyOf := map[string]string{
		"eager": fmt.Sprintf("eager%d", sgdWorld),
		"sync":  fmt.Sprintf("sync%d", sgdWorld),
	}
	var b strings.Builder
	b.WriteString("x,eagersgd [steps/s]\n")
	for _, s := range fig.Series {
		k := keyOf[s.Label]
		if k == "" || len(s.Points) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s,%.3f\n", k, s.Points[len(s.Points)-1].Y)
	}
	return b.String()
}

// EagerSGDLaunched runs one rank of the multiprocess training loop
// inside a process started by progressbench's self-spawn (the launch
// env must be set), over real loopback TCP or the shm composite —
// MsgRateLaunched's transport selection, reused. Rank 0 prints the
// machine-readable rate line the parent scans for. With kill set, the
// last rank exits the process mid-training (exit code 7, which the
// parent treats as the expected casualty) and the survivors must still
// report a rate — the chaos acceptance of the relaxed allreduce.
func EagerSGDLaunched(o Options, netKind, mode string, kill bool, seed int64) error {
	info, err := launch.FromEnv()
	if err != nil {
		return err
	}
	tn, err := tcp.New(tcp.Config{
		Rank:      info.Rank,
		WorldSize: info.WorldSize,
		Addrs:     info.Addrs,
		Epoch:     info.Epoch,
		// Patience over promptness: on an oversubscribed host a peer
		// may bind its listener late, and the first dial must wait for
		// it (the sim config bumps RetxTimeout for the same reason). A
		// rank descheduled later keeps its connections: only a lost
		// one is a verdict, so the kill scenario still converges.
		DialTimeout: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	var tr transport.Transport = tn
	switch netKind {
	case "tcp":
	case "shm":
		peers := info.SameNodePeers(info.Rank)
		if len(peers) == 0 || !shm.Supported() {
			return fmt.Errorf("bench: shm eagersgd needs co-located ranks and mmap support")
		}
		sn, err := shm.New(shm.Config{
			Rank:      info.Rank,
			WorldSize: info.WorldSize,
			Epoch:     info.Epoch,
			Peers:     peers,
		})
		if err != nil {
			return err
		}
		nodes := make([]int, info.WorldSize)
		for r := range nodes {
			nodes[r] = info.NodeOf(r)
		}
		tr, err = composite.New(composite.Config{
			Rank:      info.Rank,
			WorldSize: info.WorldSize,
			NodeOf:    nodes,
		}, sn, tn)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("bench: unknown eagersgd transport %q", netKind)
	}
	cfg := sgdConfig{
		mode: mode, steps: sgdSteps(o),
		spikeProb: sgdSpikeProb, spike: sgdSpikeDelay,
		seed: seed, killStep: -1,
	}
	if kill {
		if mode != "eager" {
			return fmt.Errorf("bench: the kill scenario needs the eager mode (sync cannot survive a dead rank)")
		}
		cfg.killStep = cfg.steps / 2
	}
	var rate float64
	var bodyErr error
	w := mpi.NewWorld(mpi.Config{
		Procs:     info.WorldSize,
		Rank:      info.Rank,
		Transport: tr,
	})
	w.Run(func(p *mpi.Proc) {
		rate, bodyErr = eagerSGDBody(p, cfg)
	})
	if bodyErr != nil {
		return bodyErr
	}
	if info.Rank == 0 {
		fmt.Printf("%s_%s_eagersgd_steps_per_s %g\n", netKind, mode, rate)
	}
	return nil
}
