package main

// The metric names of BENCHMARK.json. smoke_test.go checks both lists
// against the file in both directions.

// endToEnd lists the metrics of an untraced run. Every workload reports
// all three; what the latency and the rate are taken over is the
// workload's own pair of phases (see workloads below).
var endToEnd = []metricDef{
	{"lat_p50_us", "us"},
	{"rate_ops_s", "1/s"},
	{"setup_s", "s"},
}

type metricDef struct{ name, unit string }

// workloadSpec is one closed-loop workload: a backend, a rank count and
// the two phases its end-to-end row comes from. The first phase reports
// lat_p50_us (the lowest block p50 of the run), the second rate_ops_s
// (the highest operations/block_time).
type workloadSpec struct {
	name    string
	why     string
	backend backend
	ranks   int
	phases  []phaseSpec
}

const (
	small  = 8
	eager  = 64 << 10 // largest eager size: one signaled frame
	large  = 1 << 20  // rendezvous, 16 pipeline chunks
	reduce = 32768 * 8
)

func p2pPhases(size, window int) []phaseSpec {
	return []phaseSpec{
		{name: "pingpong", kind: kindPingPong, size: size, metric: "lat_p50_us"},
		{name: "stream", kind: kindStream, size: size, window: window, metric: "rate_ops_s"},
	}
}

// workloads are the workloads of BENCHMARK.json, in its order. There are
// five because the run-to-run spread of a figure falls with the length
// of a run (README.md, "Calibration"), and the time the benchmark
// contract allows for all runs buys 25 s a run for five workloads.
var workloads = []workloadSpec{
	{
		name: "small-shm", backend: backendShm, ranks: 2, phases: p2pPhases(small, 64),
		why: "8 B on the mmap rings: per-message cost (doorbell, nap, cell encode, matching, one pass); lat = half round trip, rate = window-64 messages/s; rendezvous and tcp idle",
	},
	{
		name: "small-tcp", backend: backendTCP, ranks: 2, phases: p2pPhases(small, 64),
		why: "the same 8 B traffic on tcp loopback alone: reactor, out-queue, writev coalescing; the shm transport does nothing; pairs with small-shm",
	},
	{
		name: "large-shm", backend: backendShm, ranks: 2, phases: p2pPhases(large, 16),
		why: "1 MiB rendezvous on the mmap rings: copies, chunk overlap, ring occupancy; lat = 1 MiB half round trip, rate = window-16 messages/s (x1.048576 = MB/s); per-message cost is noise",
	},
	{
		name: "coll-2x2", backend: backend2x2, ranks: 4,
		phases: []phaseSpec{
			{name: "allreduce-small", kind: kindAllreduce, size: 8, metric: "lat_p50_us"},
			{name: "allreduce-large", kind: kindAllreduce, size: reduce, metric: "rate_ops_s"},
		},
		why: "4 ranks on 2 nodes of 2 (shm inside, tcp across, hierarchical allreduce): lat = Allreduce of 1 float64, rate = Allreduces of 256 KiB per second; 4 ranks take turns on one core",
	},
	{
		name: "progress-sim", backend: backendSim, ranks: 2,
		phases: []phaseSpec{
			{name: "progress-latency", kind: kindProgress, window: 64, metric: "lat_p50_us"},
			{name: "continuations", kind: kindCont, size: small, window: 64, metric: "rate_ops_s"},
		},
		why: "the paper's workload: lat = completion-to-observation latency of 64 pending dummy async tasks, rate = receives completed/s through one ContinueAll per 64-message window; internal/core does the work",
	},
}

// extraWorkloads run like the others (-workload NAME) but are not in
// BENCHMARK.json: nothing bounds them. They are the references a change
// to the simulated fabric or to the tcp copy path is measured on by hand.
var extraWorkloads = []workloadSpec{
	{
		name: "small-sim", backend: backendSim, ranks: 2, phases: p2pPhases(small, 64),
		why: "the same 8 B traffic on the in-process simulated fabric (pointer path, no codec): the reference for unifying the data paths; real transports do nothing",
	},
	{
		name: "large-tcp", backend: backendTCP, ranks: 2, phases: p2pPhases(large, 16),
		why: "the same 1 MiB traffic on tcp loopback: same MPI protocol path as large-shm, different copy and flush path",
	},
}

// probes are the two extra phases a traced run executes, untraced, on
// the workload's own world between ranks 0 and 1: the 8 B half round
// trip that mpi.self_us subtracts the raw link from, and the 64 KiB
// eager stream behind mpi.bw_eager_MBps.
var probes = []phaseSpec{
	{name: "probe-pingpong", kind: kindPingPong, size: small},
	{name: "probe-eager", kind: kindStream, size: eager, window: 16},
}

func allWorkloads() []workloadSpec {
	return append(append([]workloadSpec(nil), workloads...), extraWorkloads...)
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
