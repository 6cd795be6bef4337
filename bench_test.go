// Benchmarks regenerating the evaluation of "MPI Progress For All"
// (SC 2024), one benchmark family per figure. They report the
// underlying per-operation quantity of each figure (progress-pass cost,
// event-response latency, allreduce latency); run cmd/progressbench for
// the full tables with the paper's exact sweeps.
package gompix

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gompix/internal/bench"
	"gompix/internal/core"
	"gompix/internal/mpi"
)

// stopper builds poll functions that stay pending until the returned
// stop function is called (so world finalize can drain them), letting a
// benchmark measure the cost of a progress pass over N pending tasks.
func stopper() (poll core.PollFunc, stop func()) {
	var done atomic.Bool
	return func(core.Thing) core.PollOutcome {
		if done.Load() {
			return core.Done
		}
		return core.NoProgress
	}, func() { done.Store(true) }
}

// benchWorld runs fn on a one-rank world inside the benchmark.
func benchWorld(b *testing.B, fn func(p *mpi.Proc)) {
	b.Helper()
	mpi.NewWorld(mpi.Config{Procs: 1}).Run(fn)
}

// BenchmarkFig07ProgressPass measures one collated progress pass as the
// number of pending independent async tasks grows — the per-call cost
// behind Figure 7's latency curve.
func BenchmarkFig07ProgressPass(b *testing.B) {
	for _, n := range []int{1, 8, 64, 512, 4096} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			benchWorld(b, func(p *mpi.Proc) {
				poll, stop := stopper()
				for i := 0; i < n; i++ {
					p.AsyncStart(poll, nil, nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Progress()
				}
				b.StopTimer()
				stop()
			})
		})
	}
}

// BenchmarkFig08PollOverhead measures a progress pass over 10 pending
// tasks whose poll functions burn the given delay (Figure 8).
func BenchmarkFig08PollOverhead(b *testing.B) {
	for _, d := range []time.Duration{0, time.Microsecond, 5 * time.Microsecond} {
		b.Run(fmt.Sprintf("delay=%s", d), func(b *testing.B) {
			benchWorld(b, func(p *mpi.Proc) {
				var done atomic.Bool
				for i := 0; i < 10; i++ {
					delay := d
					p.AsyncStart(func(core.Thing) core.PollOutcome {
						if done.Load() {
							return core.Done
						}
						if delay > 0 {
							busySpin(delay)
						}
						return core.NoProgress
					}, nil, nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Progress()
				}
				b.StopTimer()
				done.Store(true)
			})
		})
	}
}

func busySpin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// BenchmarkFig09SharedStream measures concurrent progress on the shared
// NULL stream (lock contention, Figure 9).
func BenchmarkFig09SharedStream(b *testing.B) {
	benchWorld(b, func(p *mpi.Proc) {
		poll, stop := stopper()
		for i := 0; i < 10; i++ {
			p.AsyncStart(poll, nil, nil)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				p.Progress()
			}
		})
		b.StopTimer()
		stop()
	})
}

// BenchmarkFig11PerThreadStreams measures concurrent progress where
// each goroutine owns a private stream (no contention, Figure 11).
func BenchmarkFig11PerThreadStreams(b *testing.B) {
	benchWorld(b, func(p *mpi.Proc) {
		var idx atomic.Int64
		poll, stop := stopper()
		streams := make([]*core.Stream, runtime.GOMAXPROCS(0)+8)
		for i := range streams {
			streams[i] = p.StreamCreate()
			for t := 0; t < 10; t++ {
				p.AsyncStart(poll, nil, streams[i])
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			s := streams[int(idx.Add(1)-1)%len(streams)]
			for pb.Next() {
				p.StreamProgress(s)
			}
		})
		b.StopTimer()
		stop()
	})
}

// BenchmarkFig10TaskClass measures a progress pass over one task-class
// hook managing an N-deep in-order queue (Figure 10) — compare with
// BenchmarkFig07ProgressPass at equal N.
func BenchmarkFig10TaskClass(b *testing.B) {
	for _, n := range []int{1, 64, 4096} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			benchWorld(b, func(p *mpi.Proc) {
				type node struct{ next *node }
				var head *node
				for i := 0; i < n; i++ {
					head = &node{next: head}
				}
				var done atomic.Bool
				p.AsyncStart(func(core.Thing) core.PollOutcome {
					if done.Load() {
						return core.Done
					}
					// Only the queue head is inspected; it never
					// "completes" so the queue stays at depth n.
					_ = head
					return core.NoProgress
				}, nil, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Progress()
				}
				b.StopTimer()
				done.Store(true)
			})
		})
	}
}

// BenchmarkFig12QueryScan measures a progress pass containing a hook
// that scans N pending requests with the side-effect-free
// RequestIsComplete query (Figure 12).
func BenchmarkFig12QueryScan(b *testing.B) {
	for _, n := range []int{1, 64, 256, 4096} {
		b.Run(fmt.Sprintf("requests=%d", n), func(b *testing.B) {
			benchWorld(b, func(p *mpi.Proc) {
				reqs := make([]*mpi.Request, n)
				for i := range reqs {
					reqs[i] = p.GrequestStart(nil, nil, nil, nil)
				}
				p.AsyncStart(func(core.Thing) core.PollOutcome {
					for _, r := range reqs {
						if r.IsComplete() {
							return core.Done
						}
					}
					return core.NoProgress
				}, nil, nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Progress()
				}
				b.StopTimer()
				for _, r := range reqs {
					r.GrequestComplete()
				}
			})
		})
	}
}

// BenchmarkFig13Allreduce measures single-int32 allreduce latency:
// user-level recursive doubling (paper Listing 1.8) vs the native
// nonblocking Iallreduce (Figure 13).
func BenchmarkFig13Allreduce(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("user/procs=%d", procs), func(b *testing.B) {
			benchAllreduce(b, procs, true)
		})
		b.Run(fmt.Sprintf("native/procs=%d", procs), func(b *testing.B) {
			benchAllreduce(b, procs, false)
		})
	}
}

func benchAllreduce(b *testing.B, procs int, user bool) {
	w := mpi.NewWorld(mpi.Config{Procs: procs, ProcsPerNode: 1})
	w.Run(func(p *mpi.Proc) {
		comm := p.CommWorld()
		buf := []int32{int32(p.Rank())}
		bench.MyAllreduce(comm, buf) // warm up routes
		comm.Barrier()
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			buf[0] = int32(p.Rank())
			if user {
				bench.MyAllreduce(comm, buf)
			} else {
				bench.NativeAllreduceInt32(comm, buf)
			}
		}
		if p.Rank() == 0 {
			b.StopTimer()
		}
	})
}

// BenchmarkPingpong measures blocking pingpong latency per hop (both
// ranks on one simulated node, or one each) and protocol regime (the
// message modes of the paper's Figure 1).
func BenchmarkPingpong(b *testing.B) {
	cases := []struct {
		name  string
		size  int
		inter bool
	}{
		{"local/lightweight-64B", 64, false},
		{"local/rendezvous-256KiB", 256 * 1024, false},
		{"net/lightweight-64B", 64, true},
		{"net/eager-8KiB", 8 * 1024, true},
		{"net/rendezvous-256KiB", 256 * 1024, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			perNode := 2
			if c.inter {
				perNode = 1
			}
			w := mpi.NewWorld(mpi.Config{Procs: 2, ProcsPerNode: perNode})
			w.Run(func(p *mpi.Proc) {
				comm := p.CommWorld()
				buf := make([]byte, c.size)
				peer := 1 - p.Rank()
				comm.Barrier()
				if p.Rank() == 0 {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						comm.SendBytes(buf, peer, 0)
						comm.RecvBytes(buf, peer, 0)
					}
					b.StopTimer()
				} else {
					for i := 0; i < b.N; i++ {
						comm.RecvBytes(buf, peer, 0)
						comm.SendBytes(buf, peer, 0)
					}
				}
			})
		})
	}
}
