package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gompix/internal/timing"
)

// ErrStopped is returned by Transmit after the network has been stopped.
var ErrStopped = errors.New("fabric: network stopped")

// ErrCut is returned by Transmit for a packet between two nodes a
// permanent partition (Until == 0) cuts in either direction: the packet
// is dropped when its own direction is cut, and delivered when only the
// way back is. Either way the pair can never complete an exchange — the
// evidence that the destination is out of reach for good, which a
// transport may turn into a failure verdict.
var ErrCut = errors.New("fabric: destination cut off by a permanent partition")

// Config describes the simulated interconnect.
type Config struct {
	// Latency is the base one-way latency between endpoints on
	// different nodes. Default 1.5µs (Omni-Path class).
	Latency time.Duration
	// LocalLatency is the one-way latency between endpoints on the
	// same node when they use the network (loopback). Default 300ns.
	LocalLatency time.Duration
	// BandwidthBytesPerSec is the per-endpoint injection bandwidth.
	// Default 12.5e9 (100 Gb/s).
	BandwidthBytesPerSec float64
	// Jitter adds a uniformly distributed extra delay in [0, Jitter)
	// to each packet's flight time. Zero disables jitter.
	Jitter time.Duration
	// Seed seeds the jitter and fault generators. Zero selects a fixed
	// default seed so runs are reproducible out of the box; there is no
	// way to request seed 0 itself (set RandomSeed for entropy instead).
	// The effective seed is readable via Network.Config().Seed.
	Seed int64
	// RandomSeed, when Seed is zero, draws the seed from the wall clock
	// instead of the fixed default, making each run's jitter and fault
	// pattern different. Ignored when Seed is nonzero.
	RandomSeed bool
	// Faults makes the fabric lossy; the zero value injects nothing.
	Faults FaultConfig
}

func (c Config) withDefaults() Config {
	if c.Latency == 0 {
		c.Latency = 1500 * time.Nanosecond
	}
	if c.LocalLatency == 0 {
		c.LocalLatency = 300 * time.Nanosecond
	}
	if c.BandwidthBytesPerSec == 0 {
		c.BandwidthBytesPerSec = 12.5e9
	}
	if c.Seed == 0 {
		if c.RandomSeed {
			c.Seed = time.Now().UnixNano()
		} else {
			c.Seed = 0x6d70697870726f67 // arbitrary fixed default
		}
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed + 1
	}
	return c
}

// EndpointID addresses a fabric endpoint (one per simulated NIC).
type EndpointID int

// Packet is a unit of delivery. Payload is opaque to the fabric; Bytes
// drives the timing model (header + data size on the wire).
type Packet struct {
	Src     EndpointID
	Dst     EndpointID
	Payload any
	Bytes   int
}

// Network is the interconnect: it owns the event scheduler, the link
// model, and the registered endpoints.
type Network struct {
	cfg   Config
	clock timing.Clock
	sched *Scheduler

	mu    sync.Mutex
	nodes []int // node id per endpoint
	// arrive holds, per endpoint, the handler every arrival to it is
	// scheduled with (built once at Attach).
	arrive []Handler
	// lastArr[src][dst] is the latest arrival scheduled on a directed
	// link (FIFO enforcement), a dense table grown at Attach. It holds
	// E² entries for the E endpoints ever attached (endpoints are never
	// detached, and every stream's VCI attaches one), and each Attach
	// grows every row: fine for simulated worlds of dozens of ranks.
	lastArr [][]time.Duration
	// rng (jitter) and frng (faults) are confined to Transmit's critical
	// section: every draw happens with n.mu held, so the generators are
	// never touched concurrently even though many sender goroutines call
	// Transmit. Keep any new draw sites inside that section.
	rng     *rand.Rand
	frng    *rand.Rand
	faults  FaultStats
	stopped bool

	// Counted by Transmit and by the arrival handlers without n.mu.
	inFlight  atomic.Int64
	delivered atomic.Uint64

	// met is the optional observability wiring (UseMetrics).
	met *netMetrics
}

// NewNetwork creates a network over the given clock (nil = real clock).
func NewNetwork(clock timing.Clock, cfg Config) *Network {
	if clock == nil {
		clock = timing.NewRealClock()
	}
	cfg = cfg.withDefaults()
	return &Network{
		cfg:   cfg,
		clock: clock,
		sched: NewScheduler(clock),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		frng:  rand.New(rand.NewSource(cfg.Faults.Seed)),
	}
}

// Clock returns the network's time source.
func (n *Network) Clock() timing.Clock { return n.clock }

// Scheduler exposes the event scheduler (the NIC uses it for
// transmit-completion events).
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// Stop shuts down the dispatch goroutine. In-flight packets are
// dropped, and later Transmit calls return ErrStopped. Idempotent.
func (n *Network) Stop() {
	n.mu.Lock()
	n.stopped = true
	n.mu.Unlock()
	n.sched.Stop()
}

// RunUntil advances a manual-clock network to the target time,
// delivering each packet with the clock at its exact arrival time.
func (n *Network) RunUntil(target time.Duration) { n.sched.RunUntil(target) }

// Attach registers an endpoint on the given node and returns its id.
// deliver is invoked (on the scheduler goroutine, or inside Advance in
// manual mode) when a packet arrives.
func (n *Network) Attach(node int, deliver func(Packet)) EndpointID {
	if deliver == nil {
		panic("fabric: Attach with nil deliver")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	id := EndpointID(len(n.nodes))
	n.nodes = append(n.nodes, node)
	n.arrive = append(n.arrive, func(_ time.Duration, p Packet) {
		deliver(p)
		n.inFlight.Add(-1)
		n.delivered.Add(1)
	})
	for src := range n.lastArr {
		n.lastArr[src] = append(n.lastArr[src], 0)
	}
	n.lastArr = append(n.lastArr, make([]time.Duration, len(n.nodes)))
	return id
}

// Node returns the node an endpoint lives on.
func (n *Network) Node(ep EndpointID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[ep]
}

// SameNode reports whether two endpoints share a node.
func (n *Network) SameNode(a, b EndpointID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[a] == n.nodes[b]
}

// FlightTime returns the modeled one-way flight latency between two
// endpoints, excluding serialization and jitter.
func (n *Network) FlightTime(src, dst EndpointID) time.Duration {
	if n.SameNode(src, dst) {
		return n.cfg.LocalLatency
	}
	return n.cfg.Latency
}

// SerializationTime returns how long the wire is occupied transmitting
// the given number of bytes.
func (n *Network) SerializationTime(bytes int) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / n.cfg.BandwidthBytesPerSec * 1e9)
}

// Transmit injects a packet whose wire transmission finishes at txDone
// (the NIC computes txDone from its serialization state). The packet is
// delivered to the destination endpoint at txDone + flight (+ jitter),
// with FIFO order preserved per directed (src, dst) link. Configured
// faults are applied here: a dropped or partitioned packet has already
// paid its wire time but never arrives; a duplicated packet arrives
// twice, back to back. A packet between nodes a permanent partition
// cuts, in either direction, reports ErrCut, whether it was dropped or
// not. Transmit after Stop returns ErrStopped.
func (n *Network) Transmit(pkt Packet, txDone time.Duration) error {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return ErrStopped
	}
	if int(pkt.Dst) >= len(n.arrive) || pkt.Dst < 0 {
		n.mu.Unlock()
		panic(fmt.Sprintf("fabric: transmit to unknown endpoint %d", pkt.Dst))
	}
	copies := 1
	var verdict error // ErrCut once a permanent partition cuts the pair
	if n.cfg.Faults.Active() {
		m := n.met
		mon := m != nil && m.reg.On()
		cut, permanent := n.partitionedLocked(pkt.Src, pkt.Dst, txDone)
		if permanent {
			verdict = ErrCut
		}
		if cut {
			n.faults.PartitionDropped++
			if mon {
				m.partitionDropped.Inc()
			}
			n.mu.Unlock()
			return verdict
		}
		lf := n.cfg.Faults.linkFaults(pkt.Src, pkt.Dst)
		if lf.DropProb > 0 && n.frng.Float64() < lf.DropProb {
			n.faults.Dropped++
			if mon {
				m.dropped.Inc()
			}
			n.mu.Unlock()
			return verdict
		}
		if lf.Delay > 0 && lf.DelayProb > 0 && n.frng.Float64() < lf.DelayProb {
			txDone += lf.Delay
			n.faults.Delayed++
			if mon {
				m.delayed.Inc()
			}
		}
		if lf.DupProb > 0 && n.frng.Float64() < lf.DupProb {
			copies = 2
			n.faults.Duplicated++
			if mon {
				m.duplicated.Inc()
			}
		}
	}
	arrive := txDone
	if n.SameNodeLocked(pkt.Src, pkt.Dst) {
		arrive += n.cfg.LocalLatency
	} else {
		arrive += n.cfg.Latency
	}
	if n.cfg.Jitter > 0 {
		arrive += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	h := n.arrive[pkt.Dst]
	last := &n.lastArr[pkt.Src][pkt.Dst]
	var arrivals [2]time.Duration
	for c := 0; c < copies; c++ {
		// FIFO per directed link: never deliver before an earlier packet
		// on the same link (a duplicate rides one slot behind). Arrival
		// times are positive, so the table's zero means no packet yet.
		if arrive <= *last {
			arrive = *last + time.Nanosecond
		}
		*last = arrive
		arrivals[c] = arrive
	}
	n.inFlight.Add(int64(copies))
	// Schedule outside the lock: in manual-clock mode Schedule fires due
	// events synchronously, and a delivery may transmit again.
	n.mu.Unlock()
	for c := 0; c < copies; c++ {
		n.sched.Schedule(arrivals[c], h, pkt)
	}
	return verdict
}

// SameNodeLocked is SameNode for callers already holding n.mu.
func (n *Network) SameNodeLocked(a, b EndpointID) bool {
	return n.nodes[a] == n.nodes[b]
}

// InFlight returns the number of packets injected but not yet delivered.
func (n *Network) InFlight() int { return int(n.inFlight.Load()) }

// Delivered returns the total number of delivered packets.
func (n *Network) Delivered() uint64 { return n.delivered.Load() }
