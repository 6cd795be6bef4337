package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gompix/mpix"
)

// phasePlan fixes how long one phase lasts in one epoch: a warm-up, then
// `ref` untraced blocks and `traced` blocks with the span recorder and
// the metrics registry on, a Barrier before each. Every rank knows the
// block's iteration count, iters_per_block, before the block starts, so
// the timed loop carries no control traffic. The first epoch's warm-up
// lasts `warm` and calibrates it; a later epoch gets it from the blocks
// timed so far and warms its fresh world up with a quarter of a block.
type phasePlan struct {
	warm, block time.Duration
	ref, traced int
}

// minItersPerBlock keeps a block from shrinking to one operation between
// two Barriers when an iteration (a window of 16 MiB, say) is slow: the
// block gets longer instead.
const minItersPerBlock = 2

// plan fixes how long each part of a run lasts.
type plan struct {
	seconds  float64
	traced   bool
	setups   int           // set-ups alone before each epoch: with the epoch's own they are the samples of setup_s
	epochs   int           // epochs at least; each builds the cluster anew
	fill     time.Duration // further epochs start while they fit into this much time
	phase    phasePlan     // each of the workload's own phases
	probe    phasePlan     // traced run: each probe phase on the workload's own world
	driver   time.Duration // traced run: budget of each layer-driver measurement
	deadline time.Duration // the one watchdog deadline
}

// planFor splits `seconds` of measuring over the phases of a workload.
// An untraced run is as many epochs as fit into `seconds`; an epoch is
// five set-ups alone, then a cluster on which each phase times eight
// blocks of 25 ms. The blocks are short and many because the run's
// figure is its best block (see blockFigures): a block has to fit into a
// spell in which nothing else uses the core. A traced run spends half
// its time on one epoch of the workload's phases (3 reference blocks and
// 3 traced blocks each) and the rest on the probes (12 short blocks
// each, for the same reason) and layer drivers.
func planFor(seconds float64, phases int, traced bool) plan {
	total := time.Duration(seconds * float64(time.Second))
	pl := plan{seconds: seconds, traced: traced, epochs: 1, deadline: min(4*total+30*time.Second, 170*time.Second)}
	if traced {
		per := total / 2 / time.Duration(phases)
		pl.phase = phasePlan{warm: per / 4, block: per / 8, ref: 3, traced: 3}
		pl.probe = phasePlan{warm: total / 80, block: total / 320, ref: 12}
		pl.driver = total / 100
		return pl
	}
	pl.setups, pl.epochs, pl.fill = 5, 3, total
	block := min(25*time.Millisecond, total/time.Duration(30*phases))
	pl.phase = phasePlan{warm: block, block: block, ref: 8}
	return pl
}

// job is the state the rank goroutines of one run share.
type job struct {
	seed  uint64
	specs []phaseSpec
	pps   []phasePlan
	start time.Time // start of the cluster's build

	// Operation accounting. The initiating rank adds a batch to
	// attempted before it starts; the verifying rank adds to done or bad
	// when the batch ends. At the watchdog, attempted-done-bad
	// operations are unfinished and count as failed.
	attempted, done, bad atomic.Int64

	setupNs atomic.Int64 // build start → last rank's first completed Barrier
	ctl     []phaseCtl
	phases  []*phaseResult // written by rank 0
	tracers []*tracer      // one per rank, traced runs only
	reg     *mpix.MetricsRegistry
	cl      *cluster

	mu       sync.Mutex
	firstBad []string // each rank's first failed operation
}

// failed is the number of operations that failed or never finished.
func (j *job) failed() int64 {
	bad := j.bad.Load()
	return bad + max(0, j.attempted.Load()-j.done.Load()-bad)
}

// phaseCtl carries rank 0's calibration decisions to the other ranks.
// Rank 0 stores before it enters the next Barrier and the others load
// after leaving it.
type phaseCtl struct {
	next  atomic.Int64 // iterations of the next warm-up batch
	final atomic.Int64 // iters_per_block once calibrated, 0 before
}

// phaseResult is what one phase measured.
type phaseResult struct {
	Name          string      `json:"name"`
	Metric        string      `json:"metric"`
	Size          int         `json:"size_bytes"`
	Window        int         `json:"window"`
	WorkingSet    int         `json:"working_set_bytes"`
	ItersPerBlock int         `json:"iters_per_block"` // of the last epoch; a block's own is its ops / ops_per_iter
	OpsPerIter    int         `json:"ops_per_iter"`
	Blocks        []blockStat `json:"blocks,omitempty"`
	TracedBlocks  []blockStat `json:"traced_blocks,omitempty"`
	P50ns         float64     `json:"p50_ns"`      // of the best block
	P50IQRRel     float64     `json:"p50_iqr_rel"` // over blocks
	RateOpsS      float64     `json:"rate_ops_s"`  // of the best block
	RateIQRRel    float64     `json:"rate_iqr_rel"`
	TailQ         float64     `json:"tail_percentile"`
	TailNs        float64     `json:"tail_ns"`
	Samples       int         `json:"samples"`

	tail   []int64 // samples of the untraced blocks, for the tail percentile
	counts phaseCounts
	spans  [numSpanNames]spanSummary // rank 0's spans over the traced blocks
}

// rankCtx is one rank's view of the run.
type rankCtx struct {
	job   *job
	p     *mpix.Proc
	comm  *mpix.Comm
	rank  int
	ranks int
	tr    *tracer // the rank's tracer while a traced block runs, nil otherwise
	trAll *tracer

	samples  []int64 // per-operation durations of the current block
	nbad     int64   // verification failures of the current batch
	firstBad string
	cleanup  []func() // run when the rank leaves the job
}

// maxBlockTail bounds the samples a phase keeps of one block for its
// tail percentile.
const maxBlockTail = 1 << 14

// fail records one failed operation; the first one is kept for the
// report.
func (rc *rankCtx) fail(format string, args ...any) {
	rc.nbad++
	if rc.firstBad == "" {
		rc.firstBad = fmt.Sprintf("rank %d: ", rc.rank) + fmt.Sprintf(format, args...)
	}
}

// settle publishes a batch's outcome: ops operations verified by this
// rank, of which rc.nbad failed. An initiating rank that verifies
// nothing settles 0, which moves its failures from done to bad.
func (rc *rankCtx) settle(ops int) {
	rc.job.bad.Add(rc.nbad)
	rc.job.done.Add(int64(ops) - rc.nbad)
	rc.nbad = 0
}

// The harness's calls into mpix. Untraced they are the plain calls an
// application makes. Traced, each is a span, and Wait becomes the
// paper's explicit loop so that every progress pass is a span of its
// own (made or idle) under the operation that waited for it. An idle
// pass yields, as the repo's own benchmarks do, because ranks may
// outnumber cores.

func (rc *rankCtx) isend(b []byte, dst, tag int) *mpix.Request {
	if rc.tr == nil {
		return rc.comm.IsendBytes(b, dst, tag)
	}
	rc.tr.begin(spIsend)
	r := rc.comm.IsendBytes(b, dst, tag)
	rc.tr.end()
	return r
}

func (rc *rankCtx) irecv(b []byte, src, tag int) *mpix.Request {
	if rc.tr == nil {
		return rc.comm.IrecvBytes(b, src, tag)
	}
	rc.tr.begin(spIrecv)
	r := rc.comm.IrecvBytes(b, src, tag)
	rc.tr.end()
	return r
}

func (rc *rankCtx) wait(r *mpix.Request) mpix.Status {
	if rc.tr == nil {
		return r.Wait()
	}
	rc.tr.begin(spWait)
	for !r.IsComplete() {
		rc.pass()
	}
	rc.tr.end()
	return r.Status()
}

// pass is one traced progress pass.
func (rc *rankCtx) pass() {
	rc.tr.begin(spPassIdle)
	if rc.p.Progress() {
		rc.tr.endAs(spPassMade)
		return
	}
	rc.tr.endAs(spPassIdle)
	runtime.Gosched()
}

func (rc *rankCtx) waitAll(reqs []*mpix.Request) {
	if rc.tr == nil {
		for _, st := range mpix.WaitAll(reqs...) {
			if st.Err != nil {
				rc.fail("request: %v", st.Err)
			}
		}
		return
	}
	for _, r := range reqs {
		if st := rc.wait(r); st.Err != nil {
			rc.fail("request: %v", st.Err)
		}
	}
}

// beginOp opens the span of operation seq; the spans inside it carry its
// id.
func (rc *rankCtx) beginOp(seq uint32) {
	if rc.tr != nil {
		rc.tr.op = seq
		rc.tr.begin(spOp)
	}
}

// begin and end bracket one public call in a traced block and do
// nothing otherwise.
func (rc *rankCtx) begin(name spanName) {
	if rc.tr != nil {
		rc.tr.begin(name)
	}
}

func (rc *rankCtx) end() {
	if rc.tr != nil {
		rc.tr.end()
	}
}

// progressOnce is one pass of a loop the harness owns (the paper's
// "while (counter > 0) MPIX_Stream_progress"): a span when traced, and a
// yield after an idle pass either way.
func (rc *rankCtx) progressOnce() {
	if rc.tr != nil {
		rc.pass()
	} else if !rc.p.Progress() {
		runtime.Gosched()
	}
}

// phaseBody runs n iterations of a phase on one rank. Rank 0 appends
// one duration per timed operation to rc.samples when the phase is a
// latency phase. warm marks a warm-up batch: every payload is compared
// in full.
type phaseBody func(rc *rankCtx, n int, warm bool)

// runPhase runs phase idx on this rank: calibrate, then timed blocks.
func (rc *rankCtx) runPhase(idx int, spec phaseSpec, pp phasePlan) {
	j := rc.job
	ctl := &j.ctl[idx]
	body := bodies[spec.kind](rc, spec)
	var res *phaseResult
	if rc.rank == 0 {
		res = j.phases[idx]
	}

	// Warm-up: batches of a size every rank learns before it starts, so
	// the body itself never asks whether to continue. An earlier epoch's
	// iters_per_block stands; the fresh world still gets a warm-up.
	iters := int(ctl.final.Load())
	if iters > 0 {
		rc.comm.Barrier()
		body(rc, max(1, iters/4), true)
	}
	var warmed time.Duration
	for iters == 0 {
		rc.comm.Barrier()
		if iters = int(ctl.final.Load()); iters > 0 {
			break
		}
		n := int(ctl.next.Load())
		t0 := time.Now()
		rc.samples = rc.samples[:0]
		body(rc, n, true)
		dt := time.Since(t0)
		if rc.rank != 0 {
			continue
		}
		warmed += dt
		perIter := max(1, dt/time.Duration(n))
		if warmed >= pp.warm {
			ctl.final.Store(max(minItersPerBlock, int64(pp.block/perIter)))
			continue
		}
		ctl.next.Store(max(int64(n), int64(min(pp.warm-warmed, pp.warm/2)/perIter)))
	}
	if rc.rank == 0 {
		res.ItersPerBlock = iters
	}

	var before, mid boundary
	for b := 0; b < pp.ref+pp.traced; b++ {
		tracedBlock := b >= pp.ref
		if rc.rank == 0 && pp.traced > 0 {
			if b == 0 {
				before = j.takeBoundary(rc, false)
			}
			if b == pp.ref {
				mid = j.takeBoundary(rc, true)
				j.reg.Enable()
			}
		}
		rc.comm.Barrier()
		if tracedBlock {
			rc.tr = rc.trAll
		}
		rc.samples = rc.samples[:0]
		t0 := time.Now()
		body(rc, iters, false)
		dt := time.Since(t0)
		rc.tr = nil
		if rc.rank != 0 {
			continue
		}
		bs := blockStat{Ops: iters * spec.opsPerIter(), Secs: dt.Seconds()}
		if len(rc.samples) > 0 {
			sort.Slice(rc.samples, func(a, b int) bool { return rc.samples[a] < rc.samples[b] })
			bs.P50ns = p50(rc.samples)
		}
		if tracedBlock {
			res.TracedBlocks = append(res.TracedBlocks, bs)
			continue
		}
		res.Blocks = append(res.Blocks, bs)
		// Every stride-th sample of the sorted block keeps the block's
		// quantiles while bounding what a phase holds on to.
		stride := 1 + len(rc.samples)/maxBlockTail
		for i := stride - 1; i < len(rc.samples); i += stride {
			res.tail = append(res.tail, rc.samples[i])
		}
	}
	if pp.traced > 0 {
		if rc.rank == 0 {
			j.reg.Disable()
			res.counts = phaseCountsFrom(before, mid, j.takeBoundary(rc, true), res)
			res.spans = rc.trAll.summary()
		}
		rc.trAll.harvest(spec.name)
	}
	if rc.rank == 0 {
		res.finish()
	}
}

// itersFor returns the iteration count at which the next epoch's block
// lasts `block`, going by the median pace of the blocks so far: one slow
// block, the first of a cold process above all, must not size the rest
// of the run.
func (res *phaseResult) itersFor(block time.Duration) int64 {
	var pace []float64 // iterations per second
	for _, b := range res.Blocks {
		pace = append(pace, float64(b.Ops/res.OpsPerIter)/b.Secs)
	}
	return max(minItersPerBlock, int64(median(pace)*block.Seconds()))
}

// absorb adds an epoch's blocks and samples to the run's phase.
func (res *phaseResult) absorb(epoch *phaseResult) {
	res.ItersPerBlock = epoch.ItersPerBlock
	res.Blocks = append(res.Blocks, epoch.Blocks...)
	res.TracedBlocks = append(res.TracedBlocks, epoch.TracedBlocks...)
	res.tail = append(res.tail, epoch.tail...)
	res.counts, res.spans = epoch.counts, epoch.spans
}

// finish folds the blocks into the phase's figures: those of its best
// block, and the relative IQR over all blocks beside them.
func (res *phaseResult) finish() {
	res.P50ns, res.P50IQRRel, res.RateOpsS, res.RateIQRRel = blockFigures(res.Blocks)
	sort.Slice(res.tail, func(a, b int) bool { return res.tail[a] < res.tail[b] })
	res.Samples = len(res.tail)
	if q, v, ok := tailPercentile(res.tail); ok {
		res.TailQ, res.TailNs = q, float64(v)
	}
}

func newPhaseResult(spec phaseSpec) *phaseResult {
	return &phaseResult{
		Name: spec.name, Metric: spec.metric, Size: spec.size, Window: spec.window,
		WorkingSet: spec.workingSet(), OpsPerIter: spec.opsPerIter(),
	}
}

// newJob prepares one epoch: a job that runs the given phases, each
// under its own phasePlan. iters holds each phase's iters_per_block
// from an earlier epoch, 0 where the job has to calibrate it. The job is
// traced when any phase plans traced blocks.
func newJob(specs []phaseSpec, pps []phasePlan, seed uint64, iters []int64) *job {
	j := &job{seed: seed, specs: specs, pps: pps, ctl: make([]phaseCtl, len(specs))}
	traced := false
	for i, spec := range specs {
		j.ctl[i].next.Store(1)
		j.ctl[i].final.Store(iters[i])
		j.phases = append(j.phases, newPhaseResult(spec))
		traced = traced || pps[i].traced > 0
	}
	if traced {
		j.reg = mpix.NewMetrics()
	}
	return j
}

// run builds the job's cluster, runs its phases on every rank and
// returns once every rank has finalized.
func (j *job) run(b backend, ranks int, scratch string) error {
	j.start = time.Now()
	if j.reg != nil {
		j.tracers = make([]*tracer, ranks)
	}
	cl, err := buildCluster(b, ranks, j.seed, j.reg, scratch)
	if err != nil {
		return err
	}
	j.cl = cl
	return cl.run(func(p *mpix.Proc) {
		rc := &rankCtx{job: j, p: p, comm: p.CommWorld(), rank: p.Rank(), ranks: p.Size()}
		if j.tracers != nil {
			rc.trAll = newTracer(rc.rank, j.start)
			j.tracers[rc.rank] = rc.trAll
		}
		rc.comm.Barrier()
		storeMax(&j.setupNs, int64(time.Since(j.start)))
		for idx, spec := range j.specs {
			rc.runPhase(idx, spec, j.pps[idx])
		}
		for _, f := range rc.cleanup {
			f()
		}
		if rc.firstBad != "" {
			j.mu.Lock()
			j.firstBad = append(j.firstBad, rc.firstBad)
			j.mu.Unlock()
		}
	})
}
