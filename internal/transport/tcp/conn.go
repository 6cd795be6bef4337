package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"gompix/internal/fabric"
	"gompix/internal/transport/framing"
)

// errWouldBlock reports an empty socket buffer on a non-blocking read.
var errWouldBlock = errors.New("tcp: read would block")

const (
	// readBufSize is the pooled per-connection read buffer; frames
	// larger than it grow the buffer (doubling) for that connection.
	readBufSize = 64 << 10
	// maxFrameLen is the corrupt-length bound: no sane frame is a
	// gigabyte.
	maxFrameLen = 1 << 30
	// deliverRunCap caps a contiguous same-link delivery run before it
	// is pushed under the link's RQ lock.
	deliverRunCap = 256
)

var rbufPool = sync.Pool{
	New: func() any { b := make([]byte, readBufSize); return &b },
}

// connState is one live socket in the reactor: the descriptor, the
// pooled read buffer with the partial-frame cursor, and the readiness
// flag that the watcher, the drain pool and caller-thread progress
// polls coordinate through.
//
// Lock order: cs.mu → p.mu (goodbye marking) → link queue locks → n.mu
// (metrics ref). Nothing takes cs.mu while holding any of the others.
type connState struct {
	n    *Network
	conn net.Conn
	rank int
	nb   *nbConn // nil → blocking driver owns the read side

	// mu owns the read/parse state below. Drains from progress polls,
	// the reactor pool and the blocking driver all serialize here.
	mu      sync.Mutex
	rbuf    []byte
	rbufBox *[]byte // pool ticket; nil once the buffer grew
	rpos    int     // start of the unparsed region
	rend    int     // end of the buffered region

	// asm, while active, is the frame the following reads land in
	// directly (see framing.Reassembly); rbuf is empty meanwhile.
	asm framing.Reassembly

	dlv     []fabric.Packet // pending same-link delivery run
	dlvLink *Link

	// ready flags buffered input: set by the watcher on a netpoller
	// wake, cleared by whichever drainer reads the socket dry.
	ready  atomic.Bool
	queued atomic.Bool // sitting in the reactor pool queue

	// bumped is the link snapshot whose netmod work counters markReady
	// incremented (one unit each) so the next progress pass polls the
	// reactor; clearReady undoes it.
	bumpMu sync.Mutex
	bumped []*Link

	// drained wakes the watcher after a drain empties the socket or
	// kills the connection; cap 1, best-effort.
	drained chan struct{}

	dead    atomic.Bool
	causeMu sync.Mutex
	cause   error
}

func newConnState(n *Network, conn net.Conn, rank int) *connState {
	cs := &connState{n: n, conn: conn, rank: rank, drained: make(chan struct{}, 1)}
	cs.rbufBox = rbufPool.Get().(*[]byte)
	cs.rbuf = *cs.rbufBox
	cs.dlv = make([]fabric.Packet, 0, deliverRunCap)
	if nb, ok := newNBConn(conn); ok {
		cs.nb = nb
	}
	return cs
}

// fail records the first terminal cause, closes the socket (waking a
// parked watcher) and signals the drain handshake. Safe under cs.mu.
func (cs *connState) fail(cause error) {
	cs.causeMu.Lock()
	if cs.cause == nil {
		cs.cause = cause
	}
	cs.causeMu.Unlock()
	cs.dead.Store(true)
	cs.conn.Close()
	cs.signalDrained()
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

func (cs *connState) signalDrained() {
	select {
	case cs.drained <- struct{}{}:
	default:
	}
}

// markReady flags buffered input and bumps every link's netmod work
// counter by one unit, so the owning streams' next progress passes run
// their netmod poll (which drains the reactor) instead of skipping it
// as idle. The bumps are undone when a drain reads the socket dry.
func (cs *connState) markReady() {
	if cs.ready.Swap(true) {
		return
	}
	cs.n.readyConns.Add(1)
	if met := cs.n.metricsRef(); met != nil {
		met.readyDepth.Add(1)
	}
	cs.bumpMu.Lock()
	if cs.bumped == nil {
		links := cs.n.linkList()
		for _, l := range links {
			if w := l.work; w != nil {
				w.Add(1)
			}
		}
		cs.bumped = links
	}
	cs.bumpMu.Unlock()
}

// clearReady undoes markReady once a drain hits EAGAIN (or the
// connection dies).
func (cs *connState) clearReady() {
	cs.bumpMu.Lock()
	if b := cs.bumped; b != nil {
		cs.bumped = nil
		for _, l := range b {
			if w := l.work; w != nil {
				w.Add(-1)
			}
		}
	}
	cs.bumpMu.Unlock()
	if cs.ready.Swap(false) {
		cs.n.readyConns.Add(-1)
		if met := cs.n.metricsRef(); met != nil {
			met.readyDepth.Add(-1)
		}
	}
}

// release retires the read side after the driver goroutine exits:
// poison further drains, return the pooled buffer, undo any readiness
// bumps so link work counters don't leak.
func (cs *connState) release() {
	cs.dead.Store(true)
	cs.mu.Lock()
	if cs.rbufBox != nil {
		rbufPool.Put(cs.rbufBox)
		cs.rbufBox = nil
	}
	cs.rbuf = nil
	cs.asm.Drop()
	cs.mu.Unlock()
	cs.clearReady()
}

// readTarget returns where the next socket read lands: the frame under
// assembly when there is one, otherwise the free end of the read
// buffer. Caller holds cs.mu.
func (cs *connState) readTarget() []byte {
	if cs.asm.Active() {
		return cs.asm.Tail()
	}
	cs.ensureSpace()
	return cs.rbuf[cs.rend:]
}

// ingest accounts for nr bytes read into readTarget and delivers every
// frame they complete. Caller holds cs.mu.
func (n *Network) ingest(cs *connState, nr int) (made bool) {
	if !cs.asm.Active() {
		cs.rend += nr
		return n.parseFrames(cs)
	}
	if !cs.asm.Filled(nr) {
		return false
	}
	dst, src, bytes, payload, err := cs.asm.Finish(n.split)
	made = n.deliver(cs, dst, src, bytes, payload, err)
	cs.flushDeliveries()
	return made
}

// ensureSpace guarantees room for the next read: compact the consumed
// prefix first, then double the buffer for a frame larger than it
// (the grown buffer is not returned to the pool).
func (cs *connState) ensureSpace() {
	if cs.rend < len(cs.rbuf) {
		return
	}
	if cs.rpos > 0 {
		n := copy(cs.rbuf, cs.rbuf[cs.rpos:cs.rend])
		cs.rpos, cs.rend = 0, n
		if cs.rend < len(cs.rbuf) {
			return
		}
	}
	nb := make([]byte, 2*len(cs.rbuf))
	copy(nb, cs.rbuf[:cs.rend])
	cs.rbuf = nb
	cs.rbufBox = nil
}

// drainConn reads the socket without blocking and parses complete
// frames in place, delivering them straight to the destination links'
// receive queues — no per-frame goroutine or channel hop. It stops at
// EAGAIN (clearing readiness and waking the watcher), at the byte
// budget (leaving readiness set so the next pass continues), or at a
// terminal error. Caller must hold cs.mu; returns whether anything was
// delivered.
func (n *Network) drainConn(cs *connState, budget int) (made bool) {
	if cs.dead.Load() {
		cs.signalDrained()
		return false
	}
	for {
		nr, err := cs.nb.read(cs.readTarget())
		if nr > 0 {
			budget -= nr
			if n.ingest(cs, nr) {
				made = true
			}
			if cs.dead.Load() {
				return made // parse hit goodbye/corrupt/unknown-EP
			}
		}
		switch err {
		case nil:
			if budget <= 0 {
				cs.markReady() // more may remain: stay flagged
				return made
			}
		case errWouldBlock:
			cs.clearReady()
			cs.signalDrained()
			return made
		default:
			cs.fail(err) // EOF, reset, closed descriptor
			return made
		}
	}
}

// parseFrames consumes complete frames from the buffered region. The
// protocol handling is byte-for-byte the old readLoop's: goodbye marks
// the peer departed, corrupt lengths/payloads and unknown endpoints
// drop the connection (counted) without panicking the rank. Frames
// parsed before a terminal event still deliver. Caller holds cs.mu.
func (n *Network) parseFrames(cs *connState) (made bool) {
	for {
		avail := cs.rend - cs.rpos
		if avail < 4 {
			break
		}
		flen := binary.LittleEndian.Uint32(cs.rbuf[cs.rpos:])
		if flen == goodbyeMark {
			n.markDeparted(cs.rank)
			cs.fail(errPeerDeparted)
			break
		}
		if flen < framing.HdrLen || flen > maxFrameLen {
			n.countCorrupt()
			cs.fail(fmt.Errorf("tcp: corrupt frame length %d from rank %d", flen, cs.rank))
			break
		}
		total := 4 + int(flen)
		if avail < total {
			// Partial frame. A large one moves to a staging buffer the
			// following reads fill directly; otherwise ensureSpace grows
			// the read buffer for it.
			if n.split != nil && framing.Stageable(int(flen)) {
				cs.asm.Begin(int(flen), cs.rbuf[cs.rpos+4:cs.rend])
				cs.rpos = cs.rend
			}
			break
		}
		frame := cs.rbuf[cs.rpos+4 : cs.rpos+total]
		cs.rpos += total
		dst, src, bytes, data := framing.ParseHdr(frame)
		payload, err := n.codec.Decode(data)
		if !n.deliver(cs, dst, src, bytes, payload, err) {
			break
		}
		made = true
	}
	cs.flushDeliveries()
	if cs.rpos == cs.rend {
		cs.rpos, cs.rend = 0, 0
	}
	return made
}

// deliver queues one decoded frame for its destination link. A frame
// that failed to decode or names an unknown endpoint drops the
// connection (counted) instead of crashing the rank; it reports whether
// the frame was queued.
func (n *Network) deliver(cs *connState, dst, src fabric.EndpointID, bytes int, payload any, err error) bool {
	if err != nil {
		n.countCorrupt()
		cs.fail(fmt.Errorf("tcp: decode frame from ep %d: %v", src, err))
		return false
	}
	l := n.lookupLink(dst)
	if l == nil {
		// Endpoints are advertised only after their link registers,
		// so a frame for an unknown endpoint is corruption or a
		// hostile sender — drop the connection, don't crash the rank.
		n.countUnknownEP()
		cs.fail(fmt.Errorf("tcp: frame for unknown endpoint %d from rank %d", dst, cs.rank))
		return false
	}
	cs.push(l, fabric.Packet{Src: src, Dst: dst, Payload: payload, Bytes: bytes})
	return true
}

// push batches consecutive packets for the same destination link so a
// burst costs one RQ lock per run instead of per frame.
func (cs *connState) push(l *Link, p fabric.Packet) {
	if cs.dlvLink != l {
		cs.flushDeliveries()
		cs.dlvLink = l
	}
	cs.dlv = append(cs.dlv, p)
	if len(cs.dlv) >= deliverRunCap {
		link := cs.dlvLink
		cs.flushDeliveries()
		cs.dlvLink = link
	}
}

func (cs *connState) flushDeliveries() {
	if len(cs.dlv) > 0 {
		cs.dlvLink.deliverBatch(cs.dlv)
		for i := range cs.dlv {
			cs.dlv[i] = fabric.Packet{}
		}
		cs.dlv = cs.dlv[:0]
	}
	cs.dlvLink = nil
}
