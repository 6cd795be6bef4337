package fabric

import (
	"time"
)

// FaultConfig makes the simulated interconnect lossy. All faults are
// applied at Transmit time from a dedicated, seeded random stream, so a
// given schedule of Transmit calls produces the same fault pattern on
// every run (full determinism additionally requires a deterministic
// caller, e.g. a manual clock or a seeded single-threaded driver —
// concurrent senders racing into Transmit reorder draws).
//
// Faults model the wire, not the NIC: a dropped packet has already paid
// its serialization time on the sender, exactly like a frame corrupted
// in flight. Recovery is the job of a reliability protocol above the
// fabric (internal/nic's Reliable layer).
type FaultConfig struct {
	// DropProb is the per-packet probability of silent loss, in [0, 1].
	DropProb float64
	// DupProb is the per-packet probability that a second copy of the
	// packet is delivered one FIFO slot behind the first.
	DupProb float64
	// DelayProb is the per-packet probability of a delay spike.
	DelayProb float64
	// Delay is the magnitude of a delay spike. Because the fabric keeps
	// per-link FIFO order, a spiked packet also delays everything behind
	// it on the same directed link (head-of-line blocking).
	Delay time.Duration
	// Links overrides the probabilities above for specific directed
	// endpoint pairs.
	Links map[Link]LinkFaults
	// Partitions schedules windows during which packets between node
	// pairs are dropped unconditionally.
	Partitions []Partition
	// Seed seeds the fault random stream. 0 derives it from Config.Seed
	// so faulty runs stay reproducible by default.
	Seed int64
}

// Link identifies a directed endpoint pair.
type Link struct {
	Src, Dst EndpointID
}

// LinkFaults is a per-link fault profile (see FaultConfig for fields).
type LinkFaults struct {
	DropProb  float64
	DupProb   float64
	DelayProb float64
	Delay     time.Duration
}

// Partition is a scheduled link outage between two nodes. Packets whose
// wire transmission finishes inside [From, Until) are dropped; Until of
// zero means the partition never heals, and Transmit reports each
// packet between the two nodes as ErrCut, in either direction.
type Partition struct {
	// SrcNode and DstNode select the affected direction; -1 matches any
	// node. Set Bidirectional for a symmetric cut.
	SrcNode, DstNode int
	Bidirectional    bool
	From, Until      time.Duration
}

// Active reports whether this configuration injects any fault.
func (f FaultConfig) Active() bool {
	if f.DropProb > 0 || f.DupProb > 0 || (f.DelayProb > 0 && f.Delay > 0) {
		return true
	}
	if len(f.Links) > 0 || len(f.Partitions) > 0 {
		return true
	}
	return false
}

// linkFaults resolves the effective fault profile for a directed link.
func (f FaultConfig) linkFaults(src, dst EndpointID) LinkFaults {
	if lf, ok := f.Links[Link{Src: src, Dst: dst}]; ok {
		return lf
	}
	return LinkFaults{DropProb: f.DropProb, DupProb: f.DupProb, DelayProb: f.DelayProb, Delay: f.Delay}
}

// matches reports whether the partition cuts src->dst at time t.
func (p Partition) matches(srcNode, dstNode int, t time.Duration) bool {
	if t < p.From || (p.Until > 0 && t >= p.Until) {
		return false
	}
	dir := func(s, d int) bool {
		return (p.SrcNode == -1 || p.SrcNode == s) && (p.DstNode == -1 || p.DstNode == d)
	}
	if dir(srcNode, dstNode) {
		return true
	}
	return p.Bidirectional && dir(dstNode, srcNode)
}

// FaultStats counts injected faults since the network was created.
type FaultStats struct {
	// Dropped counts packets lost to DropProb.
	Dropped uint64
	// Duplicated counts extra copies delivered by DupProb.
	Duplicated uint64
	// Delayed counts packets that took a delay spike.
	Delayed uint64
	// PartitionDropped counts packets lost to a scheduled partition.
	PartitionDropped uint64
}

// FaultStats returns a snapshot of the injected-fault counters.
func (n *Network) FaultStats() FaultStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// partitionedLocked reports whether a scheduled partition cuts
// src->dst at time t, and whether a partition that never heals cuts the
// pair in either direction then: a pair whose replies can never come
// back is out of reach for good, as one whose posts cannot go. Caller
// holds n.mu.
func (n *Network) partitionedLocked(src, dst EndpointID, t time.Duration) (cut, permanent bool) {
	srcNode, dstNode := n.nodes[src], n.nodes[dst]
	for _, p := range n.cfg.Faults.Partitions {
		fwd := p.matches(srcNode, dstNode, t)
		cut = cut || fwd
		permanent = permanent || p.Until == 0 && (fwd || p.matches(dstNode, srcNode, t))
	}
	return cut, permanent
}
