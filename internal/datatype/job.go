package datatype

import "gompix/internal/core"

// DefaultChunk is the number of bytes an async pack/unpack job
// processes per progress poll, modeling the bounded per-poll work of a
// GPU/DMA pack engine.
const DefaultChunk = 64 * 1024

// Job is an asynchronous pack or unpack operation: a resumable copy
// that moves DefaultChunk bytes per poll. It is an async thing — start
// it with stream.AsyncStart(job.Poll, nil) and the stream's progress
// advances it (the datatype entry of the paper's Listing 1.1, in the
// async slot). Completion is observed with IsComplete — one atomic
// load, usable from inside async poll functions.
type Job struct {
	unpack bool   // scatter wire into typed; false gathers typed into wire
	typed  []byte // the typed (laid out) buffer
	wire   []byte // the contiguous buffer
	count  int
	dt     *Datatype

	elem    int // current element
	block   int // current block within the element
	blockPo int // bytes already copied within the current block
	wirePos int

	done core.CompletionFlag
}

// NewPack returns a job that gathers count elements of dt from typed
// into wire, which must hold PackedSize bytes.
func NewPack(wire, typed []byte, count int, dt *Datatype) *Job {
	return newJob(false, typed, wire, count, dt)
}

// NewUnpack returns a job that scatters contiguous wire bytes into the
// typed buffer.
func NewUnpack(typed, wire []byte, count int, dt *Datatype) *Job {
	return newJob(true, typed, wire, count, dt)
}

func newJob(unpack bool, typed, wire []byte, count int, dt *Datatype) *Job {
	j := &Job{unpack: unpack, typed: typed, wire: wire, count: count, dt: dt}
	if count == 0 {
		j.done.Set() // nothing to start
	}
	return j
}

// Poll is the job as a core.PollFunc: one chunk per progress pass.
func (j *Job) Poll(core.Thing) core.PollOutcome {
	if j.step(DefaultChunk) {
		j.done.Set()
		return core.Done
	}
	return core.Progressed
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
	if j.unpack {
		copy(typed, wire)
	} else {
		copy(wire, typed)
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
		if j.unpack {
			copy(j.typed[off:off+n], j.wire[j.wirePos:j.wirePos+n])
		} else {
			copy(j.wire[j.wirePos:j.wirePos+n], j.typed[off:off+n])
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
