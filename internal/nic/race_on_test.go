//go:build race

package nic

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on alloc-free paths.
const raceEnabled = true
