package main

import "fmt"

// perLayer lists the metrics of a traced run, by module. Three sources:
// layer drivers (drivers.go), harness spans around each public call
// (trace.go), and counts the program already exposes (counts.go).
// README.md says which end-to-end metric each should move, on which
// workload.
var perLayer = []metricDef{
	// internal/core
	{"core.empty_pass_ns", "ns"},    // driver: idle Progress() on a fully hooked 1-rank world
	{"core.pass_ns_per_task", "ns"}, // driver: slope of the pass from 1 to 256 pending tasks
	{"core.async_start_ns", "ns"},   // driver
	{"core.defer_run_ns", "ns"},     // driver: Stream.Defer → run, batches of 64
	{"core.passes_per_msg", "count"},
	{"core.made_ratio", "ratio"},      // passes that made progress / passes
	{"core.idle_pass_share", "ratio"}, // idle-pass time / operation time
	// internal/mpi
	{"mpi.isend_ns", "ns"},
	{"mpi.irecv_ns", "ns"},
	{"mpi.wait_ns", "ns"},
	{"mpi.self_us", "us"}, // 8 B half round trip on the workload's world minus the backend's raw link
	{"mpi.allocs_per_msg", "count"},
	{"mpi.alloc_bytes_per_msg", "B"},
	{"mpi.unexp_ratio", "ratio"},
	{"mpi.progress_latency_reg_p50_ns", "ns"},
	{"mpi.continue_register_ns", "ns"},     // driver
	{"mpi.contpoll_rate_mmsg_s", "Mmsg/s"}, // driver: IsComplete-scan reference for progress-sim's rate
	{"mpi.rate_4vci_ratio", "ratio"},       // driver: 4-VCI / 1-VCI message rate on the simulated fabric
	{"mpi.rndv_chunks_per_msg", "count"},
	{"mpi.bw_eager_MBps", "MB/s"}, // probe: 64 KiB window-16 stream on the workload's world
	// internal/fabric, internal/nic, internal/shmem
	{"fabric.dispatch_overhead_us", "us"}, // driver
	{"nic.sim_link_lat_us", "us"},         // driver
	{"shmem.pingpong_p50_us", "us"},       // driver
	// internal/transport/tcp
	{"tcp.link_lat_us", "us"},    // driver
	{"tcp.link_bw_MBps", "MB/s"}, // driver
	{"tcp.writev_per_msg", "count"},
	{"tcp.segs_per_writev", "count"},
	{"tcp.reactor_wakeups_per_msg", "count"},
	{"tcp.pool_drains_per_msg", "count"},
	{"tcp.dial_s", "s"}, // driver
	// internal/transport/shm
	{"shm.link_lat_us", "us"},    // driver
	{"shm.link_bw_MBps", "MB/s"}, // driver
	{"shm.chunks_per_msg", "count"},
	{"shm.bells_per_msg", "count"},
	{"shm.segment_setup_s", "s"}, // driver
	// internal/transport/composite
	{"composite.overhead_ns", "ns"}, // driver: shm link through composite minus the raw shm link
	// internal/coll, internal/reduceop, internal/datatype
	{"coll.sched_overhead_us", "us"},     // driver: hierarchical 8 B schedule, P=4, instant transport
	{"coll.sched_recdbl_us", "us"},       // driver: recursive-doubling 8 B schedule
	{"coll.flat_tcp_small_p50_us", "us"}, // driver
	{"coll.flat_shm_small_p50_us", "us"}, // driver
	{"reduceop.sum_f64_GBps", "GB/s"},    // driver
	{"datatype.pack_contig_GBps", "GB/s"},
	{"datatype.pack_vector_GBps", "GB/s"},
	// the harness itself
	{"harness.lat_tail_us", "us"}, // highest percentile with at least ten samples beyond it
	{"harness.lat_tail_pct", "%"},
	{"harness.lat_samples", "count"},
	{"harness.block_iqr_rel", "ratio"},
	{"harness.cpu_util", "ratio"},
	{"harness.gc_pause_ms", "ms"},
	{"harness.timer_ns", "ns"}, // driver
	{"harness.trace_overhead_ratio", "ratio"},
}

// linkLatOf names the raw-link driver whose figure mpi.self_us
// subtracts: the link that carries rank 0 ↔ rank 1 on that backend.
var linkLatOf = map[backend]string{
	backendSim: "nic.sim_link_lat_us",
	backendTCP: "tcp.link_lat_us",
	backendShm: "shm.link_lat_us",
	backend2x2: "shm.link_lat_us",
}

// layerMetrics assembles the per-layer table of a traced run from the
// workload's two phases, the two probes and the drivers. A figure that
// could not be taken is left out, and checkNames reports it.
func layerMetrics(ws workloadSpec, phases []*phaseResult, ds *driverSet) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for k, v := range ds.out {
		out[k] = v
	}
	lat, rate := phases[0], phases[1]
	probeLat, probeEager := phases[2], phases[3]

	// Spans and counts of the latency phase describe one operation at a
	// time; the rate phase gives the protocol's frames per message.
	c := lat.counts
	out["core.passes_per_msg"] = c.passesPerOp
	out["core.made_ratio"] = c.madeRatio
	if op := lat.spans[spOp].TotalNs; op > 0 {
		out["core.idle_pass_share"] = float64(lat.spans[spPassIdle].TotalNs) / float64(op)
	}
	out["mpi.isend_ns"] = lat.spans[spIsend].P50ns
	out["mpi.irecv_ns"] = lat.spans[spIrecv].P50ns
	out["mpi.wait_ns"] = lat.spans[spWait].P50ns
	out["mpi.self_us"] = probeLat.P50ns/1e3 - ds.out[linkLatOf[ws.backend]]
	out["mpi.allocs_per_msg"] = c.allocsPerOp
	out["mpi.alloc_bytes_per_msg"] = c.allocBytesPerOp
	out["mpi.unexp_ratio"] = c.unexpRatio
	out["mpi.progress_latency_reg_p50_ns"] = c.progLatRegP50
	out["mpi.rndv_chunks_per_msg"] = rate.counts.framesPerOp
	out["mpi.bw_eager_MBps"] = probeEager.RateOpsS * float64(eager) / 1e6
	out["tcp.writev_per_msg"] = c.tcpWritevPerOp
	out["tcp.segs_per_writev"] = c.tcpSegsPerWritev
	out["tcp.reactor_wakeups_per_msg"] = c.tcpWakeupsPerOp
	out["tcp.pool_drains_per_msg"] = c.tcpPoolDrainsPerOp
	out["shm.chunks_per_msg"] = rate.counts.shmChunksPerOp
	out["shm.bells_per_msg"] = c.shmBellsPerOp

	out["harness.lat_tail_us"] = lat.TailNs / 1e3
	out["harness.lat_tail_pct"] = lat.TailQ * 100
	out["harness.lat_samples"] = float64(lat.Samples)
	out["harness.block_iqr_rel"] = max(lat.P50IQRRel, rate.RateIQRRel)
	out["harness.cpu_util"] = c.cpuUtil
	out["harness.gc_pause_ms"] = c.gcPauseMs + rate.counts.gcPauseMs
	if traced, _, _, _ := blockFigures(lat.TracedBlocks); lat.P50ns > 0 {
		out["harness.trace_overhead_ratio"] = traced / lat.P50ns
	}
	return out
}

// checkNames reports metrics that were computed under a name the lists
// do not know, or listed and never computed.
func checkNames(defs []metricDef, got map[string]float64) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		if _, ok := got[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	for name := range got {
		if !known[name] {
			return fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
	}
	return nil
}
