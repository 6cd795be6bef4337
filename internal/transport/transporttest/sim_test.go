package transporttest

import (
	"testing"

	"gompix/internal/fabric"
	"gompix/internal/nic"
)

// TestConformanceSim runs the suite against the in-process simulated
// fabric in real-clock mode (the dispatch goroutine delivers, matching
// how concurrent tests would see it under -race). Sim has no process
// boundary, so the failure-semantics subtests are skipped.
func TestConformanceSim(t *testing.T) {
	Run(t, Factory{
		Name: "sim",
		New: func(t *testing.T, ranks int) *World {
			net := fabric.NewNetwork(nil, fabric.Config{})
			w := &World{Close: net.Stop}
			for r := 0; r < ranks; r++ {
				w.Bind(nic.NewEndpoint(net, r))
			}
			return w
		},
	})
}
