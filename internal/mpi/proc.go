package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gompix/internal/core"
	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// Proc is one MPI rank: a progress engine plus its VCIs and the world
// communicator.
type Proc struct {
	world *World
	rank  int
	eng   *core.Engine

	mu   sync.Mutex
	vcis []*VCI
	// nvci counts the VCIs ever created: the next one's index for
	// Transport.AddLink. Indices are never reused, so a stream created
	// after a StreamFree gets an endpoint address of its own.
	nvci int

	// nullVCI backs the NULL stream (vcis[0]). Set once in newProc, so
	// it is readable without mu while StreamCreate/StreamFree rewrite
	// the slice.
	nullVCI *VCI

	// commTab maps context ids to registered communicators so a revoke
	// control frame can be attributed; pendingRevoke stashes revocations
	// for contexts still being created. Both under mu.
	commTab       map[uint32]*Comm
	pendingRevoke map[uint32]bool

	commWorld *Comm

	// cmet counts fault-tolerance events (rankN.comm.*); nil without a
	// metrics registry.
	cmet *commMetrics

	// globalMu models a legacy global MPI lock (Config.GlobalLock).
	globalMu sync.Mutex
}

func newProc(w *World, rank int) *Proc {
	p := &Proc{world: w, rank: rank, eng: core.NewEngine(w.clock)}
	if reg := w.cfg.Metrics; reg != nil {
		p.eng.UseMetrics(reg, fmt.Sprintf("rank%d", rank))
		p.cmet = newCommMetrics(reg, rank)
	}
	if w.cfg.Tracer != nil {
		p.eng.UseTracer(w.cfg.Tracer, rank)
	}
	p.nullVCI = p.newVCILocked(p.eng.Default())
	return p
}

// initWorldComm builds the world communicator once every local rank's
// VCI 0 exists: peers are addressed by transport endpoint.
func (p *Proc) initWorldComm() {
	n := p.world.Size()
	eps := make([]fabric.EndpointID, n)
	for r := range eps {
		eps[r] = p.world.transport.EndpointOf(r, 0)
	}
	p.commWorld = p.registerComm(&Comm{
		proc:  p,
		rank:  p.rank,
		ranks: identityRanks(n),
		ctx:   0,
		eps:   eps,
		local: p.nullVCI,
	})
}

// Rank returns this process's rank in the world communicator.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.Size() }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// Engine returns the rank's progress engine.
func (p *Proc) Engine() *core.Engine { return p.eng }

// CommWorld returns the world communicator for this rank.
func (p *Proc) CommWorld() *Comm { return p.commWorld }

// Wtime returns the current time in seconds (MPI_Wtime).
func (p *Proc) Wtime() float64 { return p.eng.Wtime() }

// NullStream returns the default progress context (MPIX_STREAM_NULL).
func (p *Proc) NullStream() *core.Stream { return p.eng.Default() }

// Progress invokes one collated progress pass on the NULL stream
// (MPIX_Stream_progress(MPIX_STREAM_NULL)).
func (p *Proc) Progress() bool { return p.StreamProgress(p.eng.Default()) }

// StreamProgress invokes one collated progress pass on the given
// stream (MPIX_Stream_progress).
func (p *Proc) StreamProgress(s *core.Stream) bool {
	defer p.enterMPI()()
	return s.Progress()
}

// tryStreamProgress makes one contention-free progress attempt on s:
// if another thread holds the stream lock it is already progressing
// the stream, so waiting callers skip instead of queueing behind it
// (the trylock discipline of the paper's Figure 9 fix). ok is false
// when the stream was contended. Under Config.GlobalLock every MPI
// call serializes anyway, so it falls back to the blocking pass.
func (p *Proc) tryStreamProgress(s *core.Stream) (made, ok bool) {
	if p.world.cfg.GlobalLock {
		return p.StreamProgress(s), true
	}
	return s.TryProgress()
}

// await is how every blocking MPI call waits: core.Stream.Await on s
// with the call's own condition. A global-lock world swaps the trylock
// pass for the serialized one.
func (p *Proc) await(s *core.Stream, cond func() bool, cancel func() error) error {
	if p.world.cfg.GlobalLock {
		return s.Await(cond, cancel, func() bool { return p.StreamProgress(s) })
	}
	return s.Await(cond, cancel, nil)
}

// enterMPI acquires the legacy global lock when Config.GlobalLock is
// set (modeling MPI_THREAD_MULTIPLE implementations where every MPI
// call, including initiation, contends with progress — paper §5.1).
// It returns the matching release function.
func (p *Proc) enterMPI() func() {
	if !p.world.cfg.GlobalLock {
		return func() {}
	}
	p.globalMu.Lock()
	return p.globalMu.Unlock
}

// AsyncStart registers a user async thing on a stream
// (MPIX_Async_start). A nil stream selects the NULL stream.
func (p *Proc) AsyncStart(poll core.PollFunc, state any, s *core.Stream) {
	if s == nil {
		s = p.eng.Default()
	}
	s.AsyncStart(poll, state)
}

// StreamCreate creates an MPIX stream backed by a fresh VCI
// (MPIX_Stream_create): its progress is fully independent of other
// streams' progress.
func (p *Proc) StreamCreate(opts ...core.StreamOption) *core.Stream {
	s := p.eng.NewStream(opts...)
	p.mu.Lock()
	p.newVCILocked(s)
	p.mu.Unlock()
	return s
}

// StreamFree destroys a stream created with StreamCreate
// (MPIX_Stream_free). The stream must be idle: no outstanding user
// operations. Transport-internal work — a coalesced TCP write still
// waiting for its flush pass — is drained here first, since the user
// has no handle on it.
func (p *Proc) StreamFree(s *core.Stream) {
	v := p.vciFor(s)
	for v.ep.PendingTx() > 0 {
		s.Progress()
	}
	// One more pass lets an armed flush async thing observe the now-idle
	// link and retire itself.
	s.Progress()
	p.mu.Lock()
	for i, vv := range p.vcis {
		if vv == v {
			if i == 0 {
				p.mu.Unlock()
				panic("mpi: cannot free the NULL stream")
			}
			p.vcis = append(p.vcis[:i], p.vcis[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	p.eng.FreeStream(s)
}

// vciFor returns the VCI backing a stream, or panics if the stream was
// not created on this proc.
func (p *Proc) vciFor(s *core.Stream) *VCI {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.vcis {
		if v.stream == s {
			return v
		}
	}
	panic(fmt.Sprintf("mpi: stream %q has no VCI on rank %d", s.Name(), p.rank))
}

// vciOfEP returns the VCI whose link has endpoint address ep, or nil.
func (p *Proc) vciOfEP(ep fabric.EndpointID) *VCI {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.vcis {
		if v.ep.ID() == ep {
			return v
		}
	}
	return nil
}

// newVCILocked creates a VCI bound to stream and attaches its link as
// the stream's netmod. Caller holds p.mu (or is the constructor).
func (p *Proc) newVCILocked(s *core.Stream) *VCI {
	v := &VCI{proc: p, stream: s}
	idx := p.nvci
	p.nvci++
	link, err := p.world.transport.AddLink(p.rank, idx)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d vci %d: transport link: %v", p.rank, idx, err))
	}
	if p.world.cfg.Reliable {
		rto := p.world.cfg.RetxTimeout
		if rto == 0 {
			if p.world.net != nil {
				rto = 50 * p.world.net.Config().Latency
			} else {
				// Real transports have no modeled latency to scale from.
				rto = 2 * time.Millisecond
			}
		}
		// The transport's link carries the layer's envelope (NewWorld
		// installs nic.RelCodec around the wire codec); the layer encodes
		// the header inside it.
		link = nic.NewReliable(link, wireCodec{p.world}, p.world.transport.RankOfEndpoint, nic.RelConfig{RTO: rto})
	}
	v.ep = link
	v.match.init()
	if reg := p.world.cfg.Metrics; reg != nil {
		scope := fmt.Sprintf("rank%d.vci%d", p.rank, idx)
		v.UseMetrics(reg, scope)
		v.ep.UseMetrics(reg, scope+".nic") // the reliability layer adds its own under .rel
	}
	// The link is the stream's netmod, the pass's last slot; collective
	// schedules, like the link flush, are async things of the stream.
	// The link keeps the netmod's work counter at or above what a poll
	// could drain, so an idle netmod costs the stream one atomic load
	// per pass instead of a poll. A transport whose producers live
	// outside the process — peers writing shm rings, the kernel filling
	// a socket — cannot poke the stream's wake channel from there: the
	// park rung goes through the link first (Netmod.Parking: the shm
	// consumer word, one read of each tcp socket).
	v.ep.BindWork(s.AttachNetmod((*netmod)(v)))
	// A link with deferred send work — write coalescing (tcp, shm), the
	// reliability layer's retransmission timer — arms a flush async
	// thing on the stream whenever it has some; AsyncStart is
	// stage-safe, so arming from inside a progress pass or a dial
	// goroutine is fine.
	v.ep.SetArm(func() { s.AsyncStart(linkFlushPoll, v) })
	v.sends = make(map[uint64]*netSendState)
	v.recvs = make(map[uint64]*Request)
	// Scratch buffers for netPoll's zero-allocation drains, grown by the
	// drains that fill them.
	v.cqScratch = make([]nic.CQE, 0, drainStart)
	v.rqScratch = make([]fabric.Packet, 0, drainStart)
	p.vcis = append(p.vcis, v)
	return v
}

// finalize drains the progress engine (completing outstanding async
// things, like MPI_Finalize in the paper's Listing 1.2) and then
// synchronizes with all other ranks so that no rank tears down while a
// peer still depends on its progress.
func (p *Proc) finalize() {
	p.eng.Quiesce(0)
	if p.world.remote {
		// No shared memory to rendezvous through across OS processes: a
		// world barrier plays the synchronization role, and one more
		// drain flushes whatever the barrier itself left queued
		// (coalesced writes, reliability ACKs). The post-barrier drain
		// is BOUNDED: a peer that finalized first stops progressing, so
		// its ACKs for our retransmissions may never arrive and an
		// unbounded quiesce would hang. Cutting the drain short is safe —
		// frames are delivered in FIFO order per link, so the completed
		// barrier proves every pre-barrier frame already reached and was
		// processed by its receiver; only the acknowledgements are
		// outstanding, and nobody needs them after the barrier.
		p.commWorld.Barrier()
		p.eng.Quiesce(4096)
		return
	}
	p.world.finalizeBarrier(p)
}

// ProgressThread starts a dedicated progress goroutine on the given
// stream (nil = NULL stream), modeling MPICH's MPIR_CVAR_ASYNC_PROGRESS
// background thread (paper §5.1). The returned stop function terminates
// it and waits for exit.
func (p *Proc) ProgressThread(s *core.Stream) (stop func()) {
	if s == nil {
		s = p.eng.Default()
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
				if !p.StreamProgress(s) {
					runtime.Gosched()
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

func identityRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// netmod adapts a VCI's network subsystem to core.Netmod.
type netmod VCI

func (n *netmod) Poll() bool    { return (*VCI)(n).netPoll() }
func (n *netmod) Pending() int  { return (*VCI)(n).netPending() }
func (n *netmod) Parking() bool { return n.ep.Parking() }
func (n *netmod) Queued() int   { return n.ep.QueuedCQ() + n.ep.QueuedRQ() }
