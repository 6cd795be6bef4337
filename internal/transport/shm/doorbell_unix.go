//go:build unix

package shm

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// The doorbell is the transport's kernel wakeup channel: a FIFO per
// rank in the job directory. Rings are pure shared memory, so a
// receiver that has gone idle — its progress loop deep in the backoff
// ladder, or its whole process descheduled on an oversubscribed core —
// has nothing the kernel will wake it early for; it sleeps out its
// timer (millisecond granularity on Linux once the runtime parks) while
// published cells sit unread. The TCP transport gets this wakeup for
// free from socket readiness; here the producer buys it explicitly with
// one nonblocking byte written on an empty→nonempty ring transition
// toward a consumer that is not polling (its poll stamp in the ring
// header is zero or stale — see ring.pollStamp and Link.Parking), and a
// per-rank watcher goroutine parked in a blocking FIFO read — an epoll
// wait in the runtime netpoller, exactly like the TCP watcher — drains
// every inbound ring the moment the byte lands. Steady streams keep the
// ring nonempty, waiting ranks keep their stamp live, and both pay no
// syscalls at all; the bell only rings when the receiver is parked,
// computing, or gone.

// bellClosed sentinels a peer doorbell that must never be retried.
const bellClosed = -2

func bellPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d.bell", rank))
}

// createDoorbell makes this rank's FIFO and opens it O_RDWR: the read
// side is what the watcher parks on, and holding a write side forever
// keeps reads from returning EOF when the last remote writer closes.
// O_NONBLOCK at open time puts the file in the runtime netpoller, so
// Read parks the goroutine instead of an OS thread. A filesystem
// without FIFO support degrades to no doorbell (pure polling).
func createDoorbell(dir string, rank int) *os.File {
	path := bellPath(dir, rank)
	if err := syscall.Mkfifo(path, 0o600); err != nil && !os.IsExist(err) {
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil
	}
	return f
}

// openPeerDoorbell opens the write side of a peer's FIFO without
// blocking. ENXIO/ENOENT mean the peer has not created or opened its
// bell yet — report retryable so the next ring tries again; any other
// failure disables the bell for this peer.
func openPeerDoorbell(dir string, rank int) (fd int, retry bool) {
	fd, err := syscall.Open(bellPath(dir, rank), syscall.O_WRONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		if err == syscall.ENXIO || err == syscall.ENOENT {
			return -1, true
		}
		return bellClosed, false
	}
	return fd, false
}

// ringBell writes the wakeup byte. EAGAIN means the FIFO already holds
// unread bytes — the watcher is waking anyway — and EPIPE means the
// reader is gone; both are fine to drop. Reports whether the fd is
// still usable.
func ringBell(fd int) bool {
	var b [1]byte
	for {
		_, err := syscall.Write(fd, b[:])
		switch err {
		case nil, syscall.EAGAIN:
			return true
		case syscall.EINTR:
			continue
		default:
			syscall.Close(fd)
			return false
		}
	}
}

func closeBellFd(fd int) {
	if fd >= 0 {
		syscall.Close(fd)
	}
}
