package main

import (
	"runtime"
	"syscall"
	"time"

	"gompix/internal/core"
	"gompix/mpix"
)

// A boundary is a reading of every count the program already exposes,
// taken by rank 0 between blocks: before the reference blocks, between
// the reference and the traced blocks, and after the traced blocks.
// Differences of two boundaries divided by the operations in between
// are the per-operation counts of the per-layer table.
type boundary struct {
	wall                           time.Time
	cpu                            time.Duration // process user+system time
	mem                            runtime.MemStats
	stream                         core.StreamStats // rank 0's NULL stream
	reg                            mpix.MetricsSnapshot
	tcpWakeups, tcpPoolDrains      int64
	shmChunks, shmFrames, shmBells uint64
}

func (j *job) takeBoundary(rc *rankCtx, withRegistry bool) boundary {
	b := boundary{wall: time.Now(), cpu: cpuTime(), stream: rc.p.NullStream().Stats()}
	runtime.ReadMemStats(&b.mem)
	if withRegistry {
		b.reg = j.reg.Snapshot()
	}
	for _, t := range j.cl.tcps {
		st := t.Stats()
		b.tcpWakeups += st.ReactorWakeups
		b.tcpPoolDrains += st.PoolDrains
	}
	for _, s := range j.cl.shms {
		st := s.Stats()
		b.shmChunks += st.TxChunks
		b.shmFrames += st.RxFrames
		b.shmBells += st.BellsRung
	}
	return b
}

// cpuTime returns the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseCounts holds a phase's count-derived figures. Those of the
// reference blocks (allocations, GC, CPU) are free of tracer and
// registry cost; the rest need the registry and cover the traced
// blocks.
type phaseCounts struct {
	allocsPerOp     float64
	allocBytesPerOp float64
	gcPauseMs       float64
	cpuUtil         float64 // busy share of GOMAXPROCS cores

	passesPerOp   float64 // rank 0 progress passes per operation
	madeRatio     float64 // passes that made progress / passes
	unexpRatio    float64 // matches that left the posted-receive fast path
	progLatRegP50 float64 // registry histogram, upper bucket bound
	framesPerOp   float64 // wire frames per operation, every backend that counts them

	tcpWritevPerOp     float64
	tcpSegsPerWritev   float64
	tcpWakeupsPerOp    float64
	tcpPoolDrainsPerOp float64
	shmChunksPerOp     float64
	shmBellsPerOp      float64
}

func phaseCountsFrom(before, mid, after boundary, res *phaseResult) phaseCounts {
	var refOps, tracedOps float64
	for _, b := range res.Blocks {
		refOps += float64(b.Ops)
	}
	for _, b := range res.TracedBlocks {
		tracedOps += float64(b.Ops)
	}
	var c phaseCounts
	if refOps > 0 {
		c.allocsPerOp = float64(mid.mem.Mallocs-before.mem.Mallocs) / refOps
		c.allocBytesPerOp = float64(mid.mem.TotalAlloc-before.mem.TotalAlloc) / refOps
	}
	c.gcPauseMs = float64(mid.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	if wall := mid.wall.Sub(before.wall); wall > 0 {
		c.cpuUtil = float64(mid.cpu-before.cpu) / float64(wall) / float64(runtime.GOMAXPROCS(0))
	}
	if tracedOps == 0 {
		return c
	}
	calls := float64(after.stream.Calls - mid.stream.Calls)
	c.passesPerOp = calls / tracedOps
	if calls > 0 {
		c.madeRatio = float64(after.stream.Made-mid.stream.Made) / calls
	}
	d := mpix.MetricsDiff(mid.reg, after.reg)
	posted, unexp := float64(d.Total("match.posted.hits")), float64(d.Total("match.unexp.hits"))
	if posted+unexp > 0 {
		c.unexpRatio = unexp / (posted + unexp)
	}
	c.progLatRegP50 = float64(d.Hist("rank0.vci0.req.progress_latency_ns").Quantile(0.5))
	frames := float64(d.Total("nic.sent")) + float64(after.shmFrames-mid.shmFrames) + float64(d.Hist("tcp.tx.flush_frames").Sum)
	c.framesPerOp = frames / tracedOps
	c.tcpWritevPerOp = float64(d.Counter("tcp.tx.writev")) / tracedOps
	c.tcpSegsPerWritev = d.Hist("tcp.tx.writev_segs").Mean()
	c.tcpWakeupsPerOp = float64(after.tcpWakeups-mid.tcpWakeups) / tracedOps
	c.tcpPoolDrainsPerOp = float64(after.tcpPoolDrains-mid.tcpPoolDrains) / tracedOps
	c.shmChunksPerOp = float64(after.shmChunks-mid.shmChunks) / tracedOps
	c.shmBellsPerOp = float64(after.shmBells-mid.shmBells) / tracedOps
	return c
}
