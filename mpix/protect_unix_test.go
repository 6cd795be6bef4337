//go:build unix

package mpix_test

import (
	"syscall"
	"testing"
)

// mappedBuffer returns n bytes of anonymous memory outside the Go heap
// and a function that takes all access to it away — what a killed
// process's address space is to a peer reading it. The pages stay
// reserved (PROT_NONE, not unmapped) until the test ends, so nothing
// else can be mapped at the address meanwhile.
func mappedBuffer(t *testing.T, n int) (buf []byte, revoke func()) {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(b) })
	return b, func() {
		if err := syscall.Mprotect(b, syscall.PROT_NONE); err != nil {
			t.Errorf("mprotect: %v", err)
		}
	}
}
