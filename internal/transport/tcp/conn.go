package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gompix/internal/transport/framing"
)

// errWouldBlock reports an empty socket buffer on a non-blocking read.
var errWouldBlock = errors.New("tcp: read would block")

// maxFrameLen is the corrupt-length bound: no sane frame is a gigabyte.
const maxFrameLen = 1 << 30

// connState is one live socket in the reactor: the descriptor, the
// receive stream, and the probe cadence of caller-thread progress
// polls. The stream reads into a small buffer of its own, as shm's
// streams do: a read takes in at most that much of a large frame before
// the frame's codec places its body, and the rest of the body is read
// straight into where it is going. Two kinds of drainer read it: those
// polls, and the connection's own watcher.
//
// Lock order: cs.mu → p.mu (goodbye marking) → link queue locks → n.mu
// (metrics ref). Nothing takes cs.mu while holding any of the others.
type connState struct {
	n    *Network
	conn net.Conn
	rank int
	nb   *nbConn // nil → blocking driver owns the read side

	// mu owns the receive stream: socket reads land where it says, and
	// it parses them into frames. Drains from progress polls, the
	// watcher and the blocking driver all serialize here.
	mu sync.Mutex
	rx framing.Stream

	// looks counts the consecutive progress polls that got no bytes
	// from this connection; it sets the probe cadence (Link.PollRecv)
	// and restarts whenever a read — any drainer's — returns bytes. Per
	// connection, so a silent peer is not probed again because a chatty
	// one delivered.
	looks atomic.Uint32

	dead    atomic.Bool
	causeMu sync.Mutex
	cause   error
}

func newConnState(n *Network, conn net.Conn, rank int) *connState {
	cs := &connState{n: n, conn: conn, rank: rank}
	cs.rx.Init(n.tab, maxFrameLen, cs.reject)
	cs.rx.From(n.Space, rank)
	if nb, ok := newNBConn(conn); ok {
		cs.nb = nb
	}
	return cs
}

// fail records the first terminal cause and closes the socket (waking
// a parked watcher). Safe under cs.mu.
func (cs *connState) fail(cause error) {
	cs.causeMu.Lock()
	if cs.cause == nil {
		cs.cause = cause
	}
	cs.causeMu.Unlock()
	cs.dead.Store(true)
	cs.conn.Close()
}

// takeCause returns the recorded terminal cause, falling back to the
// given error (or a generic loss) when no drain recorded one.
func (cs *connState) takeCause(fallback error) error {
	cs.causeMu.Lock()
	defer cs.causeMu.Unlock()
	if cs.cause == nil {
		if fallback == nil {
			fallback = errors.New("tcp: connection lost")
		}
		cs.cause = fallback
	}
	return cs.cause
}

// release retires the read side after the driver goroutine exits:
// poison further drains and drop a frame under assembly.
func (cs *connState) release() {
	cs.dead.Store(true)
	cs.mu.Lock()
	cs.rx.Release()
	cs.mu.Unlock()
}

// ingest accounts for nr bytes read into the stream's target and
// delivers every frame they complete. Caller holds cs.mu.
func (cs *connState) ingest(nr int) (made bool) {
	made = cs.rx.Commit(nr) > 0
	cs.rx.Flush()
	return made
}

// drainConn reads the socket without blocking and parses complete
// frames in place, delivering them straight to the destination links'
// receive queues — no per-frame goroutine or channel hop. It stops when
// the socket is empty, at drainBudget, or at a terminal error.
// Empty is EAGAIN or a short read: a stream socket that returns fewer
// bytes than were asked for has nothing more (epoll(7)), so a message
// costs one read, not a second one to be told so. Bytes that land
// right after the short read, or that the budget left behind, are the
// watcher's to find — it looks before it parks (nbConn.wfn) — or the
// next probe's: bytes restart the probe cadence. probe says the caller
// is a progress poll looking on its own cadence, and whether the look
// found anything is counted.
// Caller must hold cs.mu; returns whether anything was delivered.
func (n *Network) drainConn(cs *connState, probe bool) (made bool) {
	if cs.dead.Load() {
		return false
	}
	budget := drainBudget
	for {
		buf := cs.rx.Target(1)
		nr, err := cs.nb.read(buf)
		if probe {
			n.countProbe(nr > 0)
			probe = false
		}
		if nr > 0 {
			// Any bytes, not only a completed frame: the peer is
			// mid-message, and the rest is worth a look on the very
			// next pass.
			cs.looks.Store(0)
			budget -= nr
			if cs.ingest(nr) {
				made = true
			}
			if cs.dead.Load() {
				return made // parse hit goodbye/corrupt/unknown-EP
			}
		}
		switch {
		case err == nil && nr == len(buf):
			if budget <= 0 {
				return made // more may remain
			}
		case err == nil || err == errWouldBlock:
			return made
		default:
			cs.fail(err) // EOF, reset, closed descriptor
			return made
		}
	}
}

// reject is the stream's fault policy, shm's in effect: the goodbye
// sentinel marks the peer departed; a frame for an unknown endpoint is
// counted and skipped; a corrupt length or payload, or a frame from
// another rank's endpoint, is counted and drops the connection — a
// byte stream has no resync point — and the lost connection is the
// peer's verdict (connLost). Frames parsed before the fault still
// deliver. Runs under cs.mu.
func (cs *connState) reject(f framing.Fault) (skip bool) {
	n := cs.n
	switch {
	case f.Kind == framing.BadLength && f.Len == goodbyeMark:
		n.markDeparted(cs.rank)
		cs.fail(errPeerDeparted)
	case f.Kind == framing.UnknownEndpoint:
		n.countUnknownEP()
		return true
	default:
		n.countCorrupt()
		cs.fail(fmt.Errorf("tcp: %v from rank %d", f, cs.rank))
	}
	return false
}
