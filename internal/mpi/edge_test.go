package mpi

import (
	"bytes"
	"testing"

	"gompix/internal/core"
)

func TestRendezvousAnySource(t *testing.T) {
	// Wildcard receives must match RTS arrivals (the CTS reply path
	// must learn the concrete source from the RTS).
	const size = 128 * 1024
	run2(t, Config{Procs: 3, ProcsPerNode: 1}, func(p *Proc) {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, size)
				st := comm.RecvBytes(buf, AnySource, AnyTag)
				got[st.Source] = true
				if !bytes.Equal(buf, payload(size, int64(st.Source))) {
					t.Errorf("payload from %d corrupt", st.Source)
				}
			}
			if !got[1] || !got[2] {
				t.Errorf("sources %v", got)
			}
			return
		}
		comm.SendBytes(payload(size, int64(p.Rank())), 0, p.Rank())
	})
}

func TestCrossStreamSpawnThroughMPI(t *testing.T) {
	// An async thing on stream A spawns a follow-up on stream B; only
	// B's progress runs it (core spawn semantics surfaced via the proc).
	run2(t, Config{Procs: 1}, func(p *Proc) {
		a := p.StreamCreate()
		b := p.StreamCreate()
		ran := false
		p.AsyncStart(func(th core.Thing) core.PollOutcome {
			th.Spawn(func(core.Thing) core.PollOutcome {
				ran = true
				return core.Done
			}, nil, b)
			return core.Done
		}, nil, a)
		p.StreamProgress(a)
		if ran {
			t.Error("child ran on the wrong stream")
		}
		for !ran {
			p.StreamProgress(b)
		}
		p.StreamFree(a)
		p.StreamFree(b)
	})
}
