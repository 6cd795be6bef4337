package transporttest

import (
	"testing"

	"gompix/internal/fabric"
	"gompix/internal/transport"
)

// TestConformanceSim runs the suite against the in-process simulated
// fabric in real-clock mode (the dispatch goroutine delivers, matching
// how concurrent tests would see it under -race). Sim has no process
// boundary, so the failure-semantics subtests are skipped.
func TestConformanceSim(t *testing.T) {
	Run(t, Factory{
		Name: "sim",
		New: func(t *testing.T, ranks int) *World {
			sim := transport.NewSim(fabric.NewNetwork(nil, fabric.Config{}), func(r int) int { return r })
			w := &World{Close: func() { sim.Close() }}
			for r := 0; r < ranks; r++ {
				l, err := sim.AddLink(r, 0)
				if err != nil {
					t.Fatal(err)
				}
				w.Bind(l)
				w.Transports = append(w.Transports, sim)
			}
			return w
		},
	})
}
