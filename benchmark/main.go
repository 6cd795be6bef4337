// Command benchmark is gompix's benchmark: it drives the library from
// outside, through public functions only, in closed-loop workloads that
// each stress a different set of layers, and prints the metrics named
// in BENCHMARK.json. README.md in this directory is the manual.
//
//	go run ./benchmark -workload small-shm -seed 1 -seconds 25 -trace 0
//	go run ./benchmark -workload small-shm -seed 1 -seconds 25 -trace 1
//	go run ./benchmark -repeat 10 -seconds 25
//
// An untraced run prints the end-to-end metrics; a traced run (-trace 1)
// prints the per-layer table and writes trace-<workload>.json under
// .bench_build/. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the line before
// it is the full run record (host, plan, blocks of every phase).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run measured, printed on the line before the
// result so that two runs can be compared without guessing the host.
type record struct {
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Traced   bool           `json:"traced"`
	Host     hostInfo       `json:"host"`
	GaugeMs  []float64      `json:"core_gauge_ms"` // one reading of coreGauge before each epoch
	Load     string         `json:"load_shape"`
	Epochs   int            `json:"epochs"`
	SetupS   []float64      `json:"setup_s_samples"` // cluster build → first completed Barrier: per epoch the set-ups alone, then the epoch's own
	Phases   []*phaseResult `json:"phases"`          // the blocks of every epoch
	Notes    []string       `json:"notes,omitempty"`
	Result   result         `json:"result"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed     = flag.Uint64("seed", 1, "seed of payload patterns, buffer offsets and the fabric")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the whole suite this many times and print each metric's spread against its bound")
	)
	flag.Parse()
	// One thread runs every rank. With a thread per rank, a rank that
	// polls beside a rank that works needs two cores at once, and a shared
	// host gives that or takes it away for minutes at a time (see
	// README.md, "Load shape").
	runtime.GOMAXPROCS(1)
	if *repeat > 0 {
		exitOn(repeatSuite(*repeat, *seed, *seconds, os.Stdout))
		return
	}
	ws, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; workloads:", *workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprint(os.Stderr, "; not in BENCHMARK.json:")
		for _, w := range extraWorkloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	rec, err := runWorkload(ws, *seed, planFor(*seconds, len(ws.phases), *trace != 0), os.Stderr)
	exitOn(err)
	enc := json.NewEncoder(os.Stdout)
	exitOn(enc.Encode(rec))
	exitOn(enc.Encode(rec.Result))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// tally is the operation accounting of a run: the epochs that ended,
// plus the job that is running. The watchdog reads it from its own
// goroutine.
type tally struct {
	attempted, failed atomic.Int64
	cur               atomic.Pointer[job]
}

func (t *tally) add(j *job) {
	t.attempted.Add(j.attempted.Load())
	t.failed.Add(j.failed())
}

// totals counts the running job's unfinished operations as failed.
func (t *tally) totals() (attempted, failed int64) {
	attempted, failed = t.attempted.Load(), t.failed.Load()
	if j := t.cur.Load(); j != nil {
		attempted += j.attempted.Load()
		failed += j.failed()
	}
	return attempted, failed
}

// runWorkload runs one workload under the plan and returns its record.
// Human-readable progress goes to log.
//
// A run is a sequence of epochs. Each epoch sets the cluster up and
// tears it down a few times (set-up samples), builds it once more,
// warms every phase up on it and times the phase's blocks; the run's
// figures are taken over the blocks of all epochs. How fast two ranks
// talk settles into one of a few modes for as long as a world lives (an
// 8 B ping-pong on tcp: 13.5 or 16.4 us); many short-lived worlds
// sample the modes, where one world would report whichever it drew. A
// traced run has one epoch, then the probes on the same world, then the
// layer drivers.
func runWorkload(ws workloadSpec, seed uint64, pl plan, log io.Writer) (*record, error) {
	rec := &record{
		Workload: ws.name, Why: ws.why, Seed: seed, Seconds: pl.seconds, Traced: pl.traced, Host: readHost(),
		Load: fmt.Sprintf("closed loop, one OS process, %d ranks as goroutines taking turns on GOMAXPROCS=%d, a fresh cluster per epoch; traffic crosses host loopback or mmap files under .bench_build, never a real link",
			ws.ranks, runtime.GOMAXPROCS(0)),
	}
	scratch, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Hang policy: one deadline for the whole workload, no retries. When
	// it passes, the goroutine stacks say who waits on what, and the
	// operations still in flight are the failures.
	var ops tally
	dog := time.AfterFunc(pl.deadline, func() {
		attempted, failed := ops.totals()
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v; attempted %d, failed %d (unfinished operations count as failed)\n",
			ws.name, pl.deadline, attempted, failed)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.RemoveAll(scratch)
		json.NewEncoder(os.Stdout).Encode(result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}})
		os.Exit(3)
	})
	defer dog.Stop()

	specs, pps := ws.phases, []phasePlan{pl.phase, pl.phase}
	if pl.traced {
		specs = append(append([]phaseSpec(nil), specs...), probes...)
		pps = append(pps, pl.probe, pl.probe)
	}
	for _, spec := range specs {
		rec.Phases = append(rec.Phases, newPhaseResult(spec))
	}
	iters := make([]int64, len(specs)) // each phase's iters_per_block, 0 until an epoch has calibrated it
	var j *job
	began := time.Now()
	for e := 0; ; e++ {
		// The plan's epochs, then as many more as fit into pl.fill at the
		// pace so far.
		if used := time.Since(began); e >= pl.epochs && used+used/time.Duration(e) > pl.fill {
			break
		}
		rec.GaugeMs = append(rec.GaugeMs, coreGauge())
		// Set-up alone: build, first Barrier, tear down. With the epoch's
		// own set-up these are the samples of setup_s, spread over the run.
		for i := 0; i < pl.setups; i++ {
			j = newJob(nil, nil, seed, nil)
			if err := j.run(ws.backend, ws.ranks, scratch); err != nil {
				return nil, fmt.Errorf("epoch %d, set-up %d: %w", e, i, err)
			}
			rec.SetupS = append(rec.SetupS, time.Duration(j.setupNs.Load()).Seconds())
		}
		j = newJob(specs, pps, mix(seed+uint64(e)), iters)
		ops.cur.Store(j)
		if err := j.run(ws.backend, ws.ranks, scratch); err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		ops.add(j)
		ops.cur.Store(nil)
		rec.Epochs++
		rec.SetupS = append(rec.SetupS, time.Duration(j.setupNs.Load()).Seconds())
		rec.Notes = append(rec.Notes, j.firstBad...)
		for i, p := range j.phases {
			rec.Phases[i].absorb(p)
			iters[i] = rec.Phases[i].itersFor(pps[i].block)
		}
	}
	for _, p := range rec.Phases {
		p.finish()
	}

	res := result{Metrics: make(map[string]metricValue)}
	values := endToEndValues(rec)
	defs := endToEnd
	if pl.traced {
		ds, err := runDrivers(pl.driver, seed, scratch)
		if err != nil {
			return nil, fmt.Errorf("layer drivers: %w", err)
		}
		ops.attempted.Add(ds.attempted)
		ops.failed.Add(ds.failed)
		rec.Notes = append(rec.Notes, ds.notes...)
		defs = perLayer
		layers := layerMetrics(ws, rec.Phases, ds)
		if err := writeTrace(filepath.Join(".bench_build", "trace-"+ws.name+".json"), ws.name, seed, j.tracers, layers); err != nil {
			return nil, err
		}
		// End-to-end numbers always come from the untraced run; a traced
		// run shows them on the log only.
		fmt.Fprintf(log, "%s (traced, reference blocks): lat_p50_us=%.4g rate_ops_s=%.6g\n", ws.name, values["lat_p50_us"], values["rate_ops_s"])
		values = layers
	}
	if err := checkNames(defs, values); err != nil {
		return nil, err
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	res.Attempted, res.Failed = ops.totals()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec.Result = res
	printTable(log, rec, defs)
	return rec, nil
}

// endToEndValues reads a record's end-to-end row.
func endToEndValues(rec *record) map[string]float64 {
	return map[string]float64{
		"lat_p50_us": rec.Phases[0].P50ns / 1e3,
		"rate_ops_s": rec.Phases[1].RateOpsS,
		"setup_s":    slices.Min(rec.SetupS), // the fastest set-up, for the reason blockFigures gives
	}
}

// printTable writes the run as a table a person can read.
func printTable(w io.Writer, rec *record, defs []metricDef) {
	h := rec.Host
	fmt.Fprintf(w, "%s seed=%d seconds=%g traced=%v epochs=%d | %s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Epochs, rec.Load)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s kernel=%s LLC=%d KiB commit=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.LLCBytes>>10, h.GitCommit)
	fmt.Fprintf(w, "core gauge, one reading per epoch: lowest %.3f ms, median %.3f ms (apart when a neighbour kept the core busy)\n", slices.Min(rec.GaugeMs), median(rec.GaugeMs))
	for _, p := range rec.Phases {
		fmt.Fprintf(w, "  phase %-16s size=%d window=%d working_set=%d KiB (LLC %d KiB)\n", p.Name, p.Size, p.Window, p.WorkingSet>>10, h.LLCBytes>>10)
		fmt.Fprintf(w, "    %d blocks of iters_per_block=%d  best block: p50=%.4g us (block IQR %.1f%%)  rate=%.6g ops/s (block IQR %.1f%%)  p%g=%.4g us of %d samples\n",
			len(p.Blocks), p.ItersPerBlock, p.P50ns/1e3, 100*p.P50IQRRel, p.RateOpsS, 100*p.RateIQRRel, 100*p.TailQ, p.TailNs/1e3, p.Samples)
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
}
