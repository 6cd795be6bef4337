//go:build unix

package tcp

import (
	"net"
	"testing"
	"time"
)

// TestWaitReadableSeesBytesAlreadyThere: bytes that reached the socket
// before the watcher got round to parking — between a drain's EAGAIN
// and the next waitReadable — must not be slept on. RawConn.Read resets
// the poller's readiness token on entry, so the edge those bytes raised
// is gone; the watcher has to look before it parks.
func TestWaitReadableSeesBytesAlreadyThere(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	nb, ok := newNBConn(server)
	if !ok {
		t.Skip("no raw descriptor on this connection")
	}
	buf := make([]byte, 16)
	if _, err := nb.read(buf); err != errWouldBlock {
		t.Fatalf("read on an empty socket = %v, want errWouldBlock", err)
	}
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Let the byte, and the readiness edge it raises, arrive first.
	arrived := func() (ok bool) {
		nb.rc.Control(func(fd uintptr) { ok = readable(int(fd), nb.peek[:]) })
		return ok
	}
	for deadline := time.Now().Add(5 * time.Second); !arrived(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("byte never arrived")
		}
	}
	// The kernel queues the edge until the runtime next polls the
	// network; give an idle P or sysmon time to do so, so that the edge
	// is latched in the poll descriptor — where the reset finds it.
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- nb.waitReadable() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waitReadable: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waitReadable parked on a socket that already had data")
	}
	if n, err := nb.read(buf); n != 1 || err != nil {
		t.Fatalf("read after waitReadable = %d, %v", n, err)
	}
}
