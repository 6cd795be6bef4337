package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestMain runs the tests on one thread, as main runs the benchmark.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokePlan is two epochs of one set-up alone and two 25 ms blocks per
// phase, and layer drivers that only have to produce a number; the
// traced run is one epoch of two reference blocks and a traced block.
func smokePlan(traced bool) plan {
	pl := plan{
		traced: traced, setups: 1, epochs: 2, driver: 2 * time.Millisecond, deadline: 60 * time.Second,
		phase: phasePlan{warm: 30 * time.Millisecond, block: 25 * time.Millisecond, ref: 2},
		probe: phasePlan{warm: 20 * time.Millisecond, block: 20 * time.Millisecond, ref: 3},
	}
	if traced {
		pl.epochs, pl.phase.traced = 1, 1
	}
	return pl
}

// inTempDir moves the test into a directory of its own: the benchmark
// keeps its files under .bench_build of the directory it runs in, and
// the working directory of a test is the package directory.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, and checks that
// each emits exactly the names of BENCHMARK.json with their units, that
// no operation failed, and that the end-to-end values are usable.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkJSON(t)
	wantE2E := make(map[string]string)
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	inTempDir(t)
	for i, ws := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() && i >= len(workloads) {
				continue // the drivers are the same in every traced run
			}
			name, want := ws.name+"/untraced", wantE2E
			if traced {
				name, want = ws.name+"/traced", wantLayer
			}
			t.Run(name, func(t *testing.T) {
				rec, err := runWorkload(ws, 7, smokePlan(traced), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				res := rec.Result
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, rec.Notes)
				}
				for n, m := range res.Metrics {
					if unit, ok := want[n]; !ok {
						t.Errorf("emitted %s, which BENCHMARK.json does not list", n)
					} else if unit != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", n, m.Value)
					}
				}
				for n := range want {
					if _, ok := res.Metrics[n]; !ok {
						t.Errorf("BENCHMARK.json lists %s, which was not emitted", n)
					}
				}
				if !traced {
					for n, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must be positive", n, m.Value)
						}
					}
				}
				if rec.Host.GoVersion == "" || rec.Host.NProc < 1 || len(rec.Phases) < 2 {
					t.Fatalf("run record is incomplete: %+v", rec.Host)
				}
				pl := smokePlan(traced)
				if want := pl.epochs * (pl.setups + 1); rec.Epochs != pl.epochs || len(rec.SetupS) != want || len(rec.GaugeMs) != pl.epochs {
					t.Errorf("%d epochs, %d set-up samples and %d gauge readings, the plan has %d, %d and %d", rec.Epochs, len(rec.SetupS), len(rec.GaugeMs), pl.epochs, want, pl.epochs)
				}
				for _, p := range rec.Phases[:2] {
					if p.ItersPerBlock < minItersPerBlock {
						t.Errorf("phase %s: iters_per_block = %d, a block must hold at least %d", p.Name, p.ItersPerBlock, minItersPerBlock)
					}
					if len(p.Blocks) != pl.epochs*pl.phase.ref {
						t.Errorf("phase %s: %d blocks, want %d", p.Name, len(p.Blocks), pl.epochs*pl.phase.ref)
					}
				}
			})
		}
	}
}

// TestFailedOperations runs a workload whose first phase fails one
// operation in every timed block: the run still ends with its record
// and every metric, and reports the failures of all its epochs.
func TestFailedOperations(t *testing.T) {
	inTempDir(t)
	const kindBroken phaseKind = 100
	bodies[kindBroken] = func(rc *rankCtx, _ phaseSpec) phaseBody {
		if rc.rank != 0 {
			return idleBody
		}
		return func(rc *rankCtx, n int, warm bool) {
			rc.job.attempted.Add(int64(n))
			for i := 0; i < n; i++ {
				time.Sleep(100 * time.Microsecond)
				rc.samples = append(rc.samples, int64(100*time.Microsecond))
			}
			if !warm {
				rc.fail("operation %d fails on purpose", n)
			}
			rc.settle(n)
		}
	}
	defer delete(bodies, kindBroken)
	ws := workloadSpec{
		name: "broken", backend: backendSim, ranks: 2,
		phases: []phaseSpec{{name: "broken", kind: kindBroken, metric: "lat_p50_us"}, p2pPhases(small, 64)[1]},
	}
	pl := smokePlan(false)
	rec, err := runWorkload(ws, 7, pl, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	res := rec.Result
	if blocks := pl.epochs * pl.phase.ref; res.Correct || res.Failed != int64(blocks) || res.Attempted <= res.Failed {
		t.Errorf("correct=%v attempted=%d failed=%d, want one failure in each of %d blocks", res.Correct, res.Attempted, res.Failed, blocks)
	}
	if len(rec.Notes) != pl.epochs || len(res.Metrics) != len(endToEnd) {
		t.Errorf("notes %v, metrics %v", rec.Notes, res.Metrics)
	}
}

// TestBenchmarkJSON checks the file against the source lists and the
// limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkJSON(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			unique(names[i])
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
}
