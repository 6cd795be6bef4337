//go:build linux && (amd64 || arm64)

package shm

import (
	"runtime"
	"syscall"
	"unsafe"
)

// remoteIovec is a struct iovec naming memory in another process: its
// base is an address there, not a pointer here, so it is an integer the
// garbage collector does not look at.
type remoteIovec struct {
	base uintptr
	len  uint64
}

// readProcess copies up to len(dst) bytes from address addr of process
// pid into dst with one process_vm_readv.
func readProcess(pid int, dst []byte, addr uint64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	local := syscall.Iovec{Base: &dst[0]}
	local.SetLen(len(dst))
	remote := remoteIovec{base: uintptr(addr), len: uint64(len(dst))}
	n, _, errno := syscall.Syscall6(sysProcessVMReadv, uintptr(pid),
		uintptr(unsafe.Pointer(&local)), 1, uintptr(unsafe.Pointer(&remote)), 1, 0)
	runtime.KeepAlive(dst)
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}
