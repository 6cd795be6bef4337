package core

import "time"

// SetParkCap replaces the park rung's timer bound for a test and
// returns the function that restores it. With a bound far above any
// scheduling delay, a park that ends on its timer can only be a lost
// wake-up.
func SetParkCap(d time.Duration) (restore func()) {
	old := parkCap
	parkCap = d
	return func() { parkCap = old }
}
