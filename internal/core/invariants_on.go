//go:build invariants

package core

// checkInvariants enables the mechanical invariant checks, which a
// default build compiles away: `go test -tags invariants` (make
// invariants) runs the suites with them on. Today there is one, in the
// progress pass: a netmod skipped as idle has nothing queued
// (Stream.checkIdleNetmod).
const checkInvariants = true
