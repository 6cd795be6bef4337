//go:build !linux || !(amd64 || arm64)

package shm

import "errors"

var errNoCMA = errors.New("shm: no cross-memory read on this platform")

// readProcess refuses: every probe fails and the rings carry every
// rendezvous.
func readProcess(pid int, dst []byte, addr uint64) (int, error) { return 0, errNoCMA }
