//go:build unix

package tcp

import (
	"io"
	"net"
	"syscall"
)

// hasNonblockRead reports whether this platform supports the readiness
// reactor (raw non-blocking reads plus netpoller parking). On unix the
// runtime keeps socket descriptors in O_NONBLOCK mode and parks
// RawConn callbacks in its epoll/kqueue loop, which is exactly the
// readiness primitive the reactor needs.
const hasNonblockRead = true

// nbConn provides two primitives over a connection's raw descriptor:
//
//   - read: one non-blocking read attempt that NEVER parks, issued via
//     RawConn.Control. Control only increments the descriptor refcount,
//     so it runs concurrently with a watcher parked in RawConn.Read —
//     RawConn.Read holds the fd read-lock for its whole duration,
//     which is why the drain path must not go through it.
//   - waitReadable: park the calling goroutine in the runtime
//     netpoller until the descriptor is readable (the watcher's only
//     job).
//
// Both closures are bound once at construction so the steady-state
// reactor path performs no per-call allocations.
type nbConn struct {
	rc  syscall.RawConn
	rfn func(uintptr)      // non-blocking read body for Control
	wfn func(uintptr) bool // park body for Read
	buf []byte
	n   int
	err error
	// armed makes wfn decide exactly once per waitReadable call whether
	// to park (nothing to read yet) — the second call, after the park,
	// reports ready. Only the watcher goroutine calls waitReadable, so
	// no lock is needed.
	armed bool
	peek  [1]byte
}

// newNBConn wraps conn's raw descriptor; ok is false when the
// connection does not expose one (in-memory pipes) and the caller must
// fall back to the blocking read driver.
func newNBConn(conn net.Conn) (*nbConn, bool) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil, false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil, false
	}
	nb := &nbConn{rc: rc}
	nb.rfn = func(fd uintptr) {
		for {
			n, err := syscall.Read(int(fd), nb.buf)
			if err == syscall.EINTR {
				continue
			}
			nb.n, nb.err = n, err
			return
		}
	}
	nb.wfn = func(fd uintptr) bool {
		if !nb.armed {
			return true
		}
		nb.armed = false
		// RawConn.Read reset the poller's readiness token just before
		// this call: an edge that arrived since the last drain hit
		// EAGAIN is gone with it, and parking now would sleep on bytes
		// that are already here. Look once; anything that arrives after
		// the look sets the fresh token.
		return readable(int(fd), nb.peek[:])
	}
	return nb, true
}

// readable reports whether a read on the socket would return at once —
// data, an orderly shutdown or a pending error — without consuming
// anything.
func readable(fd int, scratch []byte) bool {
	for {
		_, _, err := syscall.Recvfrom(fd, scratch, syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN, syscall.ENOTSOCK:
			return false
		}
		return true
	}
}

// read performs one non-blocking read into p. It returns errWouldBlock
// when the socket buffer is empty and io.EOF on an orderly shutdown;
// it never blocks the calling goroutine.
func (nb *nbConn) read(p []byte) (int, error) {
	nb.buf = p
	cerr := nb.rc.Control(nb.rfn)
	n, err := nb.n, nb.err
	nb.buf = nil
	if cerr != nil {
		return 0, cerr // descriptor closed out from under us
	}
	if n < 0 {
		n = 0
	}
	switch {
	case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
		return 0, errWouldBlock
	case err != nil:
		return 0, err
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

// waitReadable returns once the descriptor is readable, closed, or
// deadlined, parking the calling goroutine in the runtime netpoller
// when it is not readable yet. It consumes no data. The netpoller is
// edge-triggered with a stored readiness token, so a byte consumed by a
// concurrent read() can leave one spurious wake behind — the drain
// loop's EAGAIN path absorbs it.
func (nb *nbConn) waitReadable() error {
	nb.armed = true
	return nb.rc.Read(nb.wfn)
}
