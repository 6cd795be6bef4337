//go:build !invariants

package core

const checkInvariants = false // see invariants_on.go
