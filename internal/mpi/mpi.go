// Package mpi implements an MPI-like message-passing runtime in pure Go,
// faithful to the structure of MPICH's CH4 device, as the substrate for
// reproducing "MPI Progress For All" (SC 2024).
//
// A World hosts N ranks as goroutines inside one process. Each rank
// (Proc) owns a progress engine (internal/core) with one VCI — virtual
// communication interface — per MPIX stream: VCI 0 backs the NULL
// stream, and Proc.StreamCreate adds more. A VCI bundles a core.Stream,
// a tag-matching engine and the nic.Link its transport handed it (a
// simulated NIC endpoint by default). One Stream.Progress call collates
// three classes like MPICH's MPIDI_progress_test (paper Listing 1.1):
// continuations, async things — the user's, and the library's own
// collective schedules, datatype jobs and link flush (a byte
// transport's coalesced writes, the reliability layer's retransmission
// timer) — and the VCI's one netmod hook. Every message, same-node or
// not, a rank's send to itself included, leaves through that link:
// what "same node" means — a shorter hop on the simulated fabric, mmap
// rings polled first inside the composite link — is the transport's
// business.
//
// There is one protocol under every transport: a rendezvous names its
// ends by handle id, and a new communicator's context id and endpoints
// are agreed by an allgather on its parent. What differs between a
// World hosting every rank (the simulated fabric) and one hosting a
// single rank of a multiprocess job is only that: which ranks it runs
// and how it finalizes (NewWorld, Run, finalize).
//
// Point-to-point messaging implements the paper's §2.1 message modes:
// lightweight/buffered eager sends (no wait block), signaled eager
// sends (one wait block on the NIC completion queue), rendezvous
// RTS/CTS (two wait blocks), and a pipelined mode for huge messages
// (many wait blocks). Requests complete only inside progress, and
// Request.IsComplete is a side-effect-free atomic query
// (MPIX_Request_is_complete).
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/timing"
	"gompix/internal/trace"
	"gompix/internal/transport"
)

// Config describes a World.
type Config struct {
	// Procs is the number of ranks. Required, >= 1.
	Procs int
	// ProcsPerNode maps ranks onto simulated nodes: rank r lives on
	// node r/ProcsPerNode. 0 means all ranks share one node. Same-node
	// ranks are Fabric.LocalLatency apart instead of Fabric.Latency,
	// and the hierarchical collectives pick their leaders by it.
	ProcsPerNode int
	// Fabric configures the simulated interconnect.
	Fabric fabric.Config
	// Clock overrides the time source (nil selects the real clock).
	Clock timing.Clock

	// Transport selects the netmod backend. Nil selects the simulated
	// fabric (transport.Sim over Fabric), preserving the historical
	// behaviour. A multiprocess transport (e.g. transport/tcp) makes
	// this World host only rank Rank; peers live in other OS processes.
	Transport transport.Transport
	// Rank is this process's world rank. Only meaningful (and required)
	// when Transport is multiprocess.
	Rank int

	// EagerInline is the largest payload sent as a buffered
	// ("lightweight") send that completes at initiation. Default 256.
	EagerInline int
	// RndvThreshold is the largest payload sent eagerly; above it the
	// RTS/CTS rendezvous protocol engages. Default 64 KiB.
	RndvThreshold int
	// PipelineChunk is the chunk size for pipelined rendezvous data.
	// Default 64 KiB.
	PipelineChunk int
	// PipelineDepth bounds in-flight pipeline chunks. Default 4.
	PipelineDepth int

	// Reliable layers the netmod reliability protocol (per-link
	// sequence numbers, cumulative ACKs, progress-driven
	// retransmission — internal/nic.Reliable) over the fabric. It is
	// enabled automatically when Fabric.Faults injects faults; set it
	// explicitly to exercise the protocol on a clean fabric. The layer
	// retransmits to a silent peer until it answers: only the
	// transport's failure verdict fails what it holds for the peer
	// (ErrLinkDown, ErrProcFailed).
	Reliable bool
	// RetxTimeout is the reliability layer's initial retransmission
	// timeout, doubled per unanswered round up to 8x. Default: 50x the
	// fabric's inter-node latency.
	RetxTimeout time.Duration

	// GlobalLock serializes all MPI calls and progress of a rank behind
	// one mutex, modeling legacy MPI_THREAD_MULTIPLE global-lock
	// implementations (used by the §5.1 async-progress-thread ablation).
	GlobalLock bool

	// Tracer, if non-nil, receives protocol milestone events (message
	// initiation, NIC completions, rendezvous handshakes, deliveries).
	// cmd/msgmodes uses it to render the paper's Figure 1-5 timelines,
	// and trace.WriteChromeTrace renders the same stream for Perfetto.
	Tracer func(trace.Event)

	// Metrics, if non-nil, wires every layer (engine, matching, NIC,
	// reliability, fabric) to the registry. Counters are recorded only
	// while the registry is enabled; a wired-but-disabled registry costs
	// one atomic load per instrumentation site.
	Metrics *metrics.Registry
}

// ApplyWorldOption lets a full Config act as a world option in the
// mpix facade's functional-options API: it replaces the whole
// configuration, so pass it before (or instead of) finer options.
func (c Config) ApplyWorldOption(dst *Config) { *dst = c }

func (c Config) withDefaults() Config {
	if c.Transport != nil && c.Transport.Multiprocess() {
		// One World per OS process: this World's node map has nothing
		// to say about peers (TopoNodeOf asks the transport instead).
		c.ProcsPerNode = 1
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = c.Procs
	}
	if c.EagerInline == 0 {
		c.EagerInline = 256
	}
	if c.RndvThreshold == 0 {
		c.RndvThreshold = 64 * 1024
	}
	if c.PipelineChunk == 0 {
		c.PipelineChunk = 64 * 1024
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 4
	}
	if c.Fabric.Faults.Active() {
		c.Reliable = true
	}
	return c
}

// World is an MPI job: a set of ranks connected by a transport. With
// the default simulated fabric all ranks run as goroutines inside this
// process; with a multiprocess transport this World hosts one rank and
// its peers run in other OS processes.
type World struct {
	cfg       Config
	clock     timing.Clock
	transport transport.Transport
	net       *fabric.Network // nil unless the transport is the simulated fabric
	remote    bool            // multiprocess transport: procs is sparse
	rank      int             // this process's rank (remote mode)
	procs     []*Proc

	// nextCtx is where the next communicator context-id pair candidate
	// comes from (reserveCtx/skipCtx).
	ctxMu   sync.Mutex
	nextCtx uint32

	// finalize barrier state: a generation-counted sense barrier. While
	// waiting, each rank keeps driving its own progress so in-flight
	// traffic from slower ranks still completes.
	finMu      sync.Mutex
	finArrived int
	finGen     int

	// flowSeq allocates trace flow ids for cross-rank arrows.
	flowSeq atomic.Uint64

	closed sync.Once
}

// NewWorld creates a world with cfg.Procs ranks. Call Close (or let
// Run's completion do it) to stop the fabric scheduler.
func NewWorld(cfg Config) *World {
	if cfg.Procs < 1 {
		panic("mpi: Config.Procs must be >= 1")
	}
	cfg = cfg.withDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = timing.NewRealClock()
	}
	w := &World{
		cfg:     cfg,
		clock:   clock,
		nextCtx: 2, // 0/1 are reserved for the world communicator
	}
	tr := cfg.Transport
	if tr == nil {
		w.net = fabric.NewNetwork(clock, cfg.Fabric)
		tr = transport.NewSim(w.net, w.NodeOf)
	} else if sim, ok := tr.(*transport.Sim); ok {
		w.net = sim.Network()
	}
	w.transport = tr
	w.remote = tr.Multiprocess()
	w.rank = cfg.Rank
	if w.net != nil {
		w.net.UseMetrics(cfg.Metrics, "fabric")
	}
	// Every link runs the protocol codec, the sim endpoint's included.
	// Under the reliability layer each link carries the layer's envelope
	// around the header the layer encoded with the same codec
	// (newVCILocked wraps each link in the layer).
	var c nic.Codec = wireCodec{w}
	if cfg.Reliable {
		c = nic.RelCodec(c)
	}
	tr.SetCodec(c)
	tr.SetClock(clock)
	w.procs = make([]*Proc, cfg.Procs)
	if w.remote {
		if cfg.Rank < 0 || cfg.Rank >= cfg.Procs {
			panic(fmt.Sprintf("mpi: Config.Rank %d out of range for %d procs", cfg.Rank, cfg.Procs))
		}
		w.procs[cfg.Rank] = newProc(w, cfg.Rank)
	} else {
		// Create procs and their VCI-0 endpoints first so every rank can
		// address every other rank's default VCI.
		for r := 0; r < cfg.Procs; r++ {
			w.procs[r] = newProc(w, r)
		}
	}
	// Start inbound delivery only after the local links exist.
	if err := tr.Start(); err != nil {
		panic(fmt.Sprintf("mpi: transport start: %v", err))
	}
	for _, p := range w.procs {
		if p != nil {
			p.initWorldComm()
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.cfg.Procs }

// Config returns the effective configuration.
func (w *World) Config() Config { return w.cfg }

// Clock returns the world's time source.
func (w *World) Clock() timing.Clock { return w.clock }

// Network exposes the fabric (tests and benchmarks use it). It is nil
// when the World runs over a non-simulated transport.
func (w *World) Network() *fabric.Network { return w.net }

// Transport returns the netmod backend.
func (w *World) Transport() transport.Transport { return w.transport }

// Metrics returns the registry from Config.Metrics (nil when unset).
func (w *World) Metrics() *metrics.Registry { return w.cfg.Metrics }

// Proc returns the rank-th process handle.
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// NodeOf returns the node a rank lives on.
func (w *World) NodeOf(rank int) int { return rank / w.cfg.ProcsPerNode }

// SameNode reports whether two ranks share a simulated node.
func (w *World) SameNode(a, b int) bool { return w.NodeOf(a) == w.NodeOf(b) }

// TopoNodeOf returns the physical node hosting a rank, the question
// the hierarchical collectives ask: the transport's placement map — the
// simulated fabric's node map, the launcher's host assignments on the
// composite shm+TCP transport — or one rank per node from a transport
// without placement knowledge (tcp, shm alone).
func (w *World) TopoNodeOf(rank int) int { return w.transport.NodeOf(rank) }

// Close stops the transport (for the simulated fabric, its scheduler;
// for TCP, the listener and connections). Idempotent.
func (w *World) Close() { w.closed.Do(func() { w.transport.Close() }) }

// Run executes fn on every rank concurrently (one goroutine per rank),
// then finalizes: each rank drains its progress engine (so launched
// async tasks complete, as MPI_Finalize does in paper Listing 1.2), all
// ranks synchronize, and the world is closed. Run panics if any rank's
// fn panics, after annotating the rank.
func (w *World) Run(fn func(*Proc)) {
	defer w.Close()
	if w.remote {
		// This process hosts exactly one rank; the others are separate
		// OS processes running their own Run.
		p := w.procs[w.rank]
		var failure any
		func() {
			defer func() { failure = recover() }()
			fn(p)
		}()
		if failure != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", p.rank, failure))
		}
		p.finalize()
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, w.Size())
	for r := 0; r < w.Size(); r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			func() {
				defer func() {
					if e := recover(); e != nil {
						panics[p.rank] = e
					}
				}()
				fn(p)
			}()
			if panics[p.rank] != nil {
				// A panicked rank cannot safely drain its engine (it
				// may hold half-finished operations), but it must still
				// release the finalize barrier so healthy ranks that
				// already returned from fn are not deadlocked. Peers
				// blocked in communication with the dead rank cannot be
				// rescued — as in MPI, a crashed rank dooms the job.
				w.finalizeBarrier(p)
				return
			}
			p.finalize()
		}(w.procs[r])
	}
	wg.Wait()
	for r, e := range panics {
		if e != nil {
			panic(fmt.Sprintf("mpi: rank %d panicked: %v", r, e))
		}
	}
}

// finalizeBarrier blocks the calling rank until every rank has
// arrived. It is a pure synchronization barrier (no messaging) so that
// teardown cannot deadlock on message progress.
func (w *World) finalizeBarrier(p *Proc) {
	w.finMu.Lock()
	gen := w.finGen
	w.finArrived++
	if w.finArrived == w.Size() {
		w.finArrived = 0
		w.finGen++
		w.finMu.Unlock()
		return
	}
	w.finMu.Unlock()
	// Keep local progress alive for stragglers' in-flight traffic.
	p.eng.Default().Await(func() bool {
		w.finMu.Lock()
		defer w.finMu.Unlock()
		return w.finGen != gen
	}, nil, p.eng.ProgressAll)
}
