//go:build !unix

package mpix_test

import "testing"

// mappedBuffer needs mmap and mprotect.
func mappedBuffer(t *testing.T, n int) (buf []byte, revoke func()) {
	t.Skip("no mmap on this platform")
	return nil, nil
}
