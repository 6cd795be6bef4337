package mpi

import (
	"bytes"
	"testing"
	"time"

	"gompix/internal/datatype"
	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/reduceop"
)

// chaosConfig builds a 2-node world config with the given fault
// schedule. All traffic crosses the lossy fabric (one rank per node),
// so the reliability layer is auto-enabled and on the hot path. Every
// chaos world carries an enabled metrics registry, so the whole suite
// doubles as a race test for the instrumentation under concurrency.
func chaosConfig(procs int, f fabric.FaultConfig) Config {
	fab := fastFabric()
	fab.Faults = f
	reg := metrics.New()
	reg.Enable()
	return Config{Procs: procs, ProcsPerNode: 1, Fabric: fab, Metrics: reg}
}

// chaosRun runs fn on a world built from cfg and returns the world so
// callers can assert on fault statistics after completion.
func chaosRun(t *testing.T, cfg Config, fn func(*Proc)) *World {
	t.Helper()
	w := NewWorld(cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(fn)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos world did not finish (deadlock?)")
	}
	return w
}

// chaosSend is SendBytes that reports a failed send as a failure.
func chaosSend(t *testing.T, comm *Comm, data []byte, dst, tag int) {
	if err := comm.IsendBytes(data, dst, tag).Wait().Err; err != nil {
		t.Errorf("rank %d: send of %d bytes to rank %d, tag %d, failed: %v", comm.Rank(), len(data), dst, tag, err)
	}
}

// chaosRecv is RecvBytes that reports a failed receive as a failure,
// not as corrupted bytes: it returns false, and the caller compares
// nothing, when the receive completed with an error.
func chaosRecv(t *testing.T, comm *Comm, buf []byte, src, tag int) bool {
	if err := comm.RecvBytes(buf, src, tag).Err; err != nil {
		t.Errorf("rank %d: receive of %d bytes from rank %d, tag %d, failed: %v", comm.Rank(), len(buf), src, tag, err)
		return false
	}
	return true
}

// chaosColl waits for a collective and reports a failed one as a
// failure, not as corrupted data: it returns false, and the rank stops,
// when the collective completed with an error.
func chaosColl(t *testing.T, p *Proc, what string, req *Request) bool {
	if err := req.Wait().Err; err != nil {
		t.Errorf("rank %d: %s failed: %v", p.Rank(), what, err)
		return false
	}
	return true
}

// chaosSchedules returns the fault schedules to sweep. The full sweep
// (drop rates up to the 10% acceptance bar, several seeds) runs by
// default; -short trims it to one moderate schedule.
func chaosSchedules(short bool) []fabric.FaultConfig {
	if short {
		return []fabric.FaultConfig{{DropProb: 0.05, DupProb: 0.02, Seed: 7}}
	}
	return []fabric.FaultConfig{
		{DropProb: 0.02, DupProb: 0.02, Seed: 7},
		{DropProb: 0.05, DupProb: 0.05, Seed: 21},
		{DropProb: 0.10, DupProb: 0.05, Seed: 99},
		{DropProb: 0.10, DupProb: 0.10, DelayProb: 0.05, Delay: 50 * time.Microsecond, Seed: 1234},
	}
}

// TestChaosPt2ptAllProtocols ping-pongs payloads spanning every
// protocol regime — buffered inline, signaled eager, rendezvous, and
// pipelined chunks — across a lossy fabric and demands byte-identical
// delivery in both directions.
func TestChaosPt2ptAllProtocols(t *testing.T) {
	sizes := []int{64, 4096, 96 * 1024, 320 * 1024}
	for _, f := range chaosSchedules(testing.Short()) {
		w := chaosRun(t, chaosConfig(2, f), func(p *Proc) {
			comm := p.CommWorld()
			for i, size := range sizes {
				want := payload(size, int64(1000+i))
				echo := payload(size, int64(2000+i))
				if p.Rank() == 0 {
					chaosSend(t, comm, want, 1, i)
					back := make([]byte, size)
					if chaosRecv(t, comm, back, 1, i) && !bytes.Equal(back, echo) {
						t.Errorf("drop=%v size=%d: echo corrupted", f.DropProb, size)
					}
				} else {
					got := make([]byte, size)
					if chaosRecv(t, comm, got, 0, i) && !bytes.Equal(got, want) {
						t.Errorf("drop=%v size=%d: payload corrupted", f.DropProb, size)
					}
					chaosSend(t, comm, echo, 0, i)
				}
			}
		})
		assertFaultsInjected(t, w, f)
	}
}

// assertFaultsInjected guards against a vacuous chaos run. Schedules
// with low probabilities can legitimately inject nothing over a short
// exchange, so only the aggressive ones are required to have fired.
// It also cross-checks the metrics registry against the fabric's
// internal FaultStats and demands the recovery machinery actually ran.
func assertFaultsInjected(t *testing.T, w *World, f fabric.FaultConfig) {
	t.Helper()
	snap := w.Metrics().Snapshot()
	fs := w.Network().FaultStats()
	if got := snap.Counter("fabric.faults.dropped"); got != fs.Dropped {
		t.Errorf("metric fabric.faults.dropped = %d, FaultStats = %d", got, fs.Dropped)
	}
	if got := snap.Counter("fabric.faults.duplicated"); got != fs.Duplicated {
		t.Errorf("metric fabric.faults.duplicated = %d, FaultStats = %d", got, fs.Duplicated)
	}
	if got := snap.Counter("fabric.faults.delayed"); got != fs.Delayed {
		t.Errorf("metric fabric.faults.delayed = %d, FaultStats = %d", got, fs.Delayed)
	}
	if f.DropProb < 0.05 {
		return
	}
	if fs.Dropped+fs.Duplicated+fs.Delayed == 0 {
		t.Errorf("schedule %+v injected no faults — chaos test is vacuous", f)
	}
	if got := snap.Total("rel.retransmits"); got == 0 {
		t.Errorf("schedule %+v: rel.retransmits == 0 despite %d drops", f, fs.Dropped)
	}
}

// TestChaosCleanFabricNoRetransmits is the control for the chaos
// counter assertions: the same reliability layer on a fault-free fabric
// must move real traffic with zero recovery events. A bug that, say,
// retransmits spuriously or misorders sequence numbers shows up here
// as a nonzero counter rather than as silent wasted bandwidth.
func TestChaosCleanFabricNoRetransmits(t *testing.T) {
	cfg := chaosConfig(2, fabric.FaultConfig{})
	cfg.Reliable = true // not auto-enabled without faults
	// The default RTO is ~50x the fabric latency (microseconds), which
	// goroutine scheduling on a real clock can legitimately exceed,
	// causing a spurious (correct, but nonzero) retransmit. A generous
	// RTO makes "zero recovery events" deterministic.
	cfg.RetxTimeout = time.Second
	w := chaosRun(t, cfg, func(p *Proc) {
		comm := p.CommWorld()
		for i, size := range []int{64, 4096, 96 * 1024} {
			if p.Rank() == 0 {
				chaosSend(t, comm, payload(size, int64(i)), 1, i)
			} else {
				chaosRecv(t, comm, make([]byte, size), 0, i)
			}
		}
	})
	snap := w.Metrics().Snapshot()
	for _, name := range []string{
		"rel.retransmits", "rel.backoff.rounds", "rel.frames.failed", "rel.dups.dropped", "rel.out_of_order",
		"fabric.faults.dropped", "fabric.faults.duplicated",
	} {
		if got := snap.Total(name); got != 0 {
			t.Errorf("%s = %d on a clean fabric, want 0", name, got)
		}
	}
	// ...while the protocol itself demonstrably ran.
	if snap.Total("rel.acks.sent") == 0 {
		t.Error("acks.sent == 0: reliability layer saw no traffic")
	}
	if snap.Total("nic.sent") == 0 {
		t.Error("nic.sent == 0: endpoints saw no traffic")
	}
	if snap.Total("core.progress.calls") == 0 {
		t.Error("core.progress.calls == 0: engines never progressed")
	}
}

// TestChaosCollectives runs barrier, bcast, and allreduce on a 4-rank
// lossy fabric and checks the results match the fault-free values; a
// collective that fails reads as its error, and its rank stops. The
// block repeats: one pass is a few dozen frames, and since blocking
// waits stopped stretching it past the retransmission timeout (which
// used to produce retransmissions of its own) a 5 % schedule can get
// through one pass having dropped a lone ACK, which
// assertFaultsInjected rightly calls vacuous.
func TestChaosCollectives(t *testing.T) {
	const rounds = 8
	for _, f := range chaosSchedules(testing.Short()) {
		w := chaosRun(t, chaosConfig(4, f), func(p *Proc) {
			comm := p.CommWorld()
			n := comm.Size()
			for r := 0; r < rounds; r++ {
				if !chaosColl(t, p, "barrier", comm.Ibarrier()) {
					return
				}

				bwant := payload(1024, int64(55+r))
				bbuf := make([]byte, 1024)
				if p.Rank() == 2 {
					copy(bbuf, bwant)
				}
				if !chaosColl(t, p, "bcast", comm.Ibcast(bbuf, 1024, datatype.Byte, 2)) {
					return
				}
				if !bytes.Equal(bbuf, bwant) {
					t.Errorf("drop=%v rank %d round %d: bcast corrupted", f.DropProb, p.Rank(), r)
				}

				const count = 256
				vals := make([]int32, count)
				for i := range vals {
					vals[i] = int32(p.Rank() + i + r)
				}
				out := make([]byte, count*4)
				if !chaosColl(t, p, "allreduce", comm.Iallreduce(reduceop.EncodeInt32s(vals), out, count, datatype.Int32, reduceop.Sum)) {
					return
				}
				got := reduceop.DecodeInt32s(out)
				for i, v := range got {
					want := int32(n)*int32(i+r) + int32(n*(n-1)/2)
					if v != want {
						t.Errorf("drop=%v rank %d round %d: allreduce[%d] = %d, want %d", f.DropProb, p.Rank(), r, i, v, want)
						break
					}
				}
			}
			chaosColl(t, p, "barrier", comm.Ibarrier())
		})
		assertFaultsInjected(t, w, f)
	}
}

// TestChaosRendezvousUnderHeavyLoss hammers the RTS/CTS handshake and
// the ACK-clocked pipeline with the acceptance-bar fault mix.
func TestChaosRendezvousUnderHeavyLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos mode")
	}
	f := fabric.FaultConfig{DropProb: 0.10, DupProb: 0.05, Seed: 4242}
	w := chaosRun(t, chaosConfig(2, f), func(p *Proc) {
		comm := p.CommWorld()
		const size = 256 * 1024 // 4 pipeline chunks per transfer
		for round := 0; round < 3; round++ {
			want := payload(size, int64(round))
			if p.Rank() == 0 {
				chaosSend(t, comm, want, 1, round)
			} else {
				got := make([]byte, size)
				if chaosRecv(t, comm, got, 0, round) && !bytes.Equal(got, want) {
					t.Errorf("round %d: rendezvous payload corrupted", round)
				}
			}
		}
	})
	// 10% loss over ~48 pipeline chunks cannot complete without the
	// recovery path: demand the counters prove it ran.
	snap := w.Metrics().Snapshot()
	if got := snap.Total("rel.retransmits"); got == 0 {
		t.Error("rel.retransmits == 0 under 10% loss")
	}
	if got := snap.Total("rel.dups.dropped"); got == 0 {
		t.Error("rel.dups.dropped == 0 under 5% duplication + retransmissions")
	}
	if got := snap.Total("match.posted.hits") + snap.Total("match.unexp.hits"); got == 0 {
		t.Error("no tag matches recorded across the whole run")
	}
}

// TestChaosPartitionDeadline is the acceptance scenario: a permanently
// partitioned link must surface ErrLinkDown (sender, once its first
// post crosses the partition and the sim transport reports the peer
// down) and ErrTimedOut (receiver, whose message can never arrive) from
// WaitDeadline instead of hanging.
func TestChaosPartitionDeadline(t *testing.T) {
	f := fabric.FaultConfig{
		Partitions: []fabric.Partition{{SrcNode: 0, DstNode: 1, Bidirectional: true}},
	}
	chaosRun(t, chaosConfig(2, f), func(p *Proc) {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			// Signaled eager send: the partition swallows it, the verdict
			// on rank 1 follows, and the layer fails the unacknowledged
			// frame.
			req := comm.IsendBytes(payload(4096, 9), 1, 0)
			st, err := req.WaitDeadline(10 * time.Second)
			if err != ErrLinkDown {
				t.Errorf("sender err = %v (status %+v), want ErrLinkDown", err, st)
			}
			if req.Err() != ErrLinkDown {
				t.Errorf("request err = %v, want ErrLinkDown", req.Err())
			}
		} else {
			// The matching message never arrives: the wait must expire,
			// and the orphaned receive must be cancellable.
			req := comm.IrecvBytes(make([]byte, 4096), 0, 0)
			if _, err := req.WaitDeadline(5 * time.Millisecond); err != ErrTimedOut {
				t.Errorf("receiver err = %v, want ErrTimedOut", err)
			}
			if err := req.Cancel(); err != nil {
				t.Errorf("cancel orphaned recv: %v", err)
			}
			if st, ok := req.Test(); !ok || !st.Cancelled {
				t.Errorf("orphaned recv not cancelled: %+v ok=%v", st, ok)
			}
		}
	})
}

// TestChaosOneWayPartition cuts only node 1 → node 0, for good. Rank 0's
// send reaches rank 1, but every acknowledgement back is cut; rank 1's
// send is cut on its way. Each sender must still get a verdict, never a
// retransmission that goes on forever: the sim reports a permanent cut
// of either direction to the posting rank, and the layer fails the
// unacknowledged frame.
func TestChaosOneWayPartition(t *testing.T) {
	f := fabric.FaultConfig{
		Partitions: []fabric.Partition{{SrcNode: 1, DstNode: 0}},
	}
	chaosRun(t, chaosConfig(2, f), func(p *Proc) {
		comm := p.CommWorld()
		req := comm.IsendBytes(payload(4096, 5), 1-p.Rank(), 0)
		st, err := req.WaitDeadline(10 * time.Second)
		if err != ErrLinkDown {
			t.Errorf("rank %d: sender err = %v (status %+v), want ErrLinkDown", p.Rank(), err, st)
		}
	})
}

// TestChaosTransientPartition heals a mid-transfer partition and checks
// the retransmission layer recovers without data loss.
func TestChaosTransientPartition(t *testing.T) {
	f := fabric.FaultConfig{
		Partitions: []fabric.Partition{{
			SrcNode: 0, DstNode: 1, Bidirectional: true,
			From: 0, Until: 500 * time.Microsecond,
		}},
	}
	chaosRun(t, chaosConfig(2, f), func(p *Proc) {
		comm := p.CommWorld()
		want := payload(8192, 77)
		if p.Rank() == 0 {
			chaosSend(t, comm, want, 1, 0)
		} else {
			got := make([]byte, 8192)
			if chaosRecv(t, comm, got, 0, 0) && !bytes.Equal(got, want) {
				t.Error("payload corrupted across transient partition")
			}
		}
	})
}
