package datatype

import (
	"sync"
	"sync/atomic"

	"gompix/internal/core"
)

// DefaultChunk is the number of bytes an async pack/unpack job
// processes per progress poll, modeling the bounded per-poll work of a
// GPU/DMA pack engine.
const DefaultChunk = 64 * 1024

// JobKind distinguishes pack (gather) from unpack (scatter).
type JobKind int

const (
	// PackJob gathers a typed buffer into contiguous bytes.
	PackJob JobKind = iota
	// UnpackJob scatters contiguous bytes into a typed buffer.
	UnpackJob
)

// Job is an asynchronous pack or unpack operation submitted to the
// Engine. Completion is observed with IsComplete — one atomic load,
// usable from inside async poll functions.
type Job struct {
	kind  JobKind
	typed []byte // the typed (laid out) buffer
	wire  []byte // the contiguous buffer
	count int
	dt    *Datatype

	elem    int // current element
	block   int // current block within the element
	blockPo int // bytes already copied within the current block
	wirePos int

	done core.CompletionFlag
}

// IsComplete reports whether the job has finished. No side effects.
func (j *Job) IsComplete() bool { return j.done.IsSet() }

// BytesMoved returns the number of wire bytes processed so far.
func (j *Job) BytesMoved() int { return j.wirePos }

// step copies up to budget bytes and reports whether the job finished.
func (j *Job) step(budget int) bool {
	if j.dt.Contig() {
		return j.stepRun(budget)
	}
	return j.stepBlocks(budget)
}

// stepRun advances a job over a Contig type: the count elements are one
// run, so the typed offset is the wire offset and a poll is one copy.
func (j *Job) stepRun(budget int) bool {
	total := j.count * j.dt.size
	n := min(total-j.wirePos, budget)
	typed, wire := j.typed[j.wirePos:j.wirePos+n], j.wire[j.wirePos:j.wirePos+n]
	if j.kind == PackJob {
		copy(wire, typed)
	} else {
		copy(typed, wire)
	}
	j.wirePos += n
	return j.wirePos == total
}

// stepBlocks advances a job block by block: the path for gapped
// layouts and the reference stepRun is tested against.
func (j *Job) stepBlocks(budget int) bool {
	for budget > 0 {
		if j.elem >= j.count {
			return true
		}
		blocks := j.dt.blocks
		b := blocks[j.block]
		off := j.elem*j.dt.extent + b.Off + j.blockPo
		n := b.Len - j.blockPo
		if n > budget {
			n = budget
		}
		if j.kind == PackJob {
			copy(j.wire[j.wirePos:j.wirePos+n], j.typed[off:off+n])
		} else {
			copy(j.typed[off:off+n], j.wire[j.wirePos:j.wirePos+n])
		}
		j.wirePos += n
		j.blockPo += n
		budget -= n
		if j.blockPo == b.Len {
			j.blockPo = 0
			j.block++
			if j.block == len(blocks) {
				j.block = 0
				j.elem++
			}
		}
	}
	return j.elem >= j.count
}

// Engine is the asynchronous datatype pack/unpack subsystem. It
// implements core.Hook and is registered under core.ClassDatatype.
type Engine struct {
	chunk int

	mu   sync.Mutex
	jobs []*Job
	n    atomic.Int64

	// work, when bound, mirrors n into the owning stream's datatype
	// work counter (core.RegisterHookCounted). Nil handles are no-ops.
	work *core.Work

	polls    atomic.Uint64
	finished atomic.Uint64
}

var _ core.Hook = (*Engine)(nil)

// NewEngine returns an engine processing up to chunk bytes per job per
// poll (0 selects DefaultChunk).
func NewEngine(chunk int) *Engine {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &Engine{chunk: chunk}
}

// SubmitPack schedules an asynchronous gather of count elements of dt
// from typed into wire. The wire buffer must hold PackedSize bytes.
func (e *Engine) SubmitPack(wire, typed []byte, count int, dt *Datatype) *Job {
	return e.submit(&Job{kind: PackJob, typed: typed, wire: wire, count: count, dt: dt})
}

// SubmitUnpack schedules an asynchronous scatter of contiguous wire
// bytes into the typed buffer.
func (e *Engine) SubmitUnpack(typed, wire []byte, count int, dt *Datatype) *Job {
	return e.submit(&Job{kind: UnpackJob, typed: typed, wire: wire, count: count, dt: dt})
}

func (e *Engine) submit(j *Job) *Job {
	if j.count == 0 {
		j.done.Set()
		return j
	}
	e.mu.Lock()
	e.jobs = append(e.jobs, j)
	e.mu.Unlock()
	e.n.Add(1)
	e.work.Add(1)
	return j
}

// BindWork attaches the owning stream's datatype work counter. Bind
// before submitting jobs.
func (e *Engine) BindWork(w *core.Work) { e.work = w }

// Poll advances every active job by one chunk. Implements core.Hook;
// an empty poll costs one atomic load.
func (e *Engine) Poll() bool {
	if e.n.Load() == 0 {
		return false
	}
	e.polls.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	made := false
	kept := e.jobs[:0]
	for _, j := range e.jobs {
		if j.step(e.chunk) {
			j.done.Set()
			e.n.Add(-1)
			e.work.Add(-1)
			e.finished.Add(1)
		} else {
			kept = append(kept, j)
		}
		made = true
	}
	// Zero dropped tail entries so completed jobs are collectable.
	for i := len(kept); i < len(e.jobs); i++ {
		e.jobs[i] = nil
	}
	e.jobs = kept
	return made
}

// Pending returns the number of unfinished jobs.
func (e *Engine) Pending() int { return int(e.n.Load()) }

// Stats returns lifetime counters.
func (e *Engine) Stats() (polls, finished uint64) {
	return e.polls.Load(), e.finished.Load()
}
