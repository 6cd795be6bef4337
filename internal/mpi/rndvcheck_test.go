package mpi

// The rendezvous checker: an explicit-state enumeration of the
// point-to-point protocols between two ranks, with at most one fault.
// The two ranks are one World over ckNet, a transport that delivers
// nothing by itself: the checker chooses every event — a rank's next
// call, the delivery of the frame at the head of either direction's
// wire, the completion (CQE) of a rank's oldest signaled post, a failure
// verdict — and the fault the scenario allows (kill a rank, revoke,
// cancel a posted receive, a link-down CQE). After each event both ranks
// run progress until nothing is queued (settle). Every post crosses the
// world's codec (nic.RoundTrip, as framing.Link.Loopback does), so each
// receiver decodes its own header.
//
// Exploration is a depth-first search that replays an event prefix into
// a fresh World for every branch, pruning states whose hash it has seen.
// It asserts that no request completes twice (Request.complete panics),
// that a rank's verdict or revocation leaves none of its receives
// pending, and at quiescence — no event but a fault left — that every
// request of a live rank has completed, that receives matched their
// stream's messages in send order with the sent bytes, and that both
// handle tables are empty with netOps at 0. A failure prints the
// scenario and its event list; replayScenario runs them again.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"gompix/internal/fabric"
	"gompix/internal/metrics"
	"gompix/internal/nic"
	"gompix/internal/timing"
	"gompix/internal/transport"
)

// lookupRecv resolves a receive handle without retiring it: whether a
// test's receive is still registered.
func (v *VCI) lookupRecv(id uint64) *Request {
	v.hmu.Lock()
	defer v.hmu.Unlock()
	return v.recvs[id]
}

// ckKind is a message kind the checker draws from; ckSizes holds each
// one's size under ckConfig.
type ckKind uint8

const (
	ckInline ckKind = iota // buffered: complete at post
	ckEager                // signaled eager: complete at its CQE
	ckCTS                  // rendezvous by RTS, CTS and DATA chunks
	ckRead                 // rendezvous by advertised RTS, read and FIN
)

var (
	ckKindNames = [...]string{"inline", "eager", "cts", "read"}
	ckSizes     = [...]int{8, 32, 80, 80} // a rendezvous is 3 chunks, 2 in flight
)

// ckConfig is the checker's world: small thresholds, so every kind is a
// few bytes.
func ckConfig(tr transport.Transport) Config {
	return Config{
		Procs: 2, Transport: tr, Clock: timing.NewManualClock(),
		EagerInline: 16, RndvThreshold: 64, PipelineChunk: 32, PipelineDepth: 2,
	}
}

// ckFault is the one fault an enumeration may inject (at most once).
type ckFault uint8

const (
	ckNoFault ckFault = iota
	ckKill
	ckRevoke
	ckCancel
	ckLinkDown
)

var ckFaultNames = [...]string{"none", "kill", "revoke", "cancel", "linkdown"}

// ckMsg is one message of a scenario, from rank from to the other rank,
// all on the world communicator with one tag: the receives of a stream
// must match its messages in order.
type ckMsg struct {
	kind ckKind
	from int
}

// ckScenario is what a run enumerates: messages in program order, and
// the fault it may inject. Its string form is "0:cts 1:eager /kill".
type ckScenario struct {
	msgs  []ckMsg
	fault ckFault
}

func (s ckScenario) String() string {
	var b strings.Builder
	for _, m := range s.msgs {
		fmt.Fprintf(&b, "%d:%s ", m.from, ckKindNames[m.kind])
	}
	return b.String() + "/" + ckFaultNames[s.fault]
}

func parseScenario(s string) (ckScenario, error) {
	var sc ckScenario
	body, fault, ok := strings.Cut(s, "/")
	if !ok {
		return sc, fmt.Errorf("scenario %q: no /fault", s)
	}
	if sc.fault = ckFault(ckIndex(ckFaultNames[:], fault)); sc.fault == 255 {
		return sc, fmt.Errorf("scenario %q: unknown fault", s)
	}
	for _, f := range strings.Fields(body) {
		from, kind, _ := strings.Cut(f, ":")
		k := ckIndex(ckKindNames[:], kind)
		if (from != "0" && from != "1") || k == 255 {
			return sc, fmt.Errorf("scenario %q: bad message %q", s, f)
		}
		sc.msgs = append(sc.msgs, ckMsg{kind: ckKind(k), from: int(from[0] - '0')})
	}
	return sc, nil
}

func ckIndex(names []string, s string) uint8 {
	for i, n := range names {
		if n == s {
			return uint8(i)
		}
	}
	return 255
}

// ckEvent is one choice of the checker; its string form is the op's
// name and its argument, a rank (the receive's slot for cancel).
type ckEvent struct {
	op  ckOp
	arg int
}

type ckOp uint8

const (
	evOp       ckOp = iota // the rank's next call
	evDeliver              // the head frame of the rank's wire reaches the peer
	evCQE                  // the rank's oldest signaled post completes
	evVerdict              // the rank's failure verdict on its peer
	evKill                 // faults from here on
	evRevoke               // the rank revokes the world communicator
	evCancel               // the receive in slot arg is cancelled
	evLinkDown             // the rank's oldest signaled post fails: the link is cut
)

var ckOpNames = [...]string{"op", "deliver", "cqe", "verdict", "kill", "revoke", "cancel", "linkdown"}

func (e ckEvent) String() string { return ckOpNames[e.op] + strconv.Itoa(e.arg) }

func ckEvents(evs []ckEvent) string {
	s := make([]string, len(evs))
	for i, e := range evs {
		s[i] = e.String()
	}
	return strings.Join(s, " ")
}

func parseEvents(s string) ([]ckEvent, error) {
	var evs []ckEvent
	for _, f := range strings.Fields(s) {
		name := strings.TrimRight(f, "0123456789")
		arg, err := strconv.Atoi(f[len(name):])
		op := ckIndex(ckOpNames[:], name)
		if err != nil || op == 255 {
			return nil, fmt.Errorf("bad event %q", f)
		}
		evs = append(evs, ckEvent{op: ckOp(op), arg: arg})
	}
	return evs, nil
}

// ---------------------------------------------------------------------------
// The scripted transport.

// ckNet is a two-rank transport whose wires hold every posted frame
// until the checker delivers it, and whose signaled posts complete when
// the checker says. A post toward a dead rank, or across a cut link, is
// refused as framing.Peer.Post refuses one toward a condemned peer: an
// inline post returns an error, a signaled one gets a failed CQE.
type ckNet struct {
	codec nic.Codec
	clock timing.Clock
	links [2]*ckLink
	wire  [2][]ckFrame // frames from rank r toward its peer, oldest first
	cqs   [2][]*ckCQE  // rank r's signaled posts not yet completed, oldest first

	dead    [2]bool
	cut     bool    // the link between the ranks is down for good
	verdict [2]bool // a verdict on its peer is owed to rank r
	refused [2]int  // inline posts rank r had refused

	// noRead makes PeerReader answer nil while a send that must not be
	// advertised is posted; mem holds every send buffer by address, for
	// the reader.
	noRead bool
	mem    []ckMem
	misuse string // the first read of a send buffer its send no longer holds
}

type ckFrame struct {
	pkt fabric.Packet
	cqe *ckCQE // nil for an inline post
}

type ckCQE struct {
	token     any
	delivered bool // its frame reached the peer
	failed    bool // it completes with ErrLinkDown
}

type ckMem struct {
	buf  []byte
	rank int
	req  **Request // the send, once posted
}

func (n *ckNet) AddLink(rank, vci int) (nic.Link, error) {
	if vci != 0 {
		return nil, errors.New("ckNet: one VCI per rank")
	}
	n.links[rank] = &ckLink{net: n, rank: rank}
	return n.links[rank], nil
}

func (n *ckNet) EndpointOf(rank, vci int) fabric.EndpointID { return fabric.EndpointID(rank + 1) }
func (n *ckNet) RankOfEndpoint(ep fabric.EndpointID) int {
	if ep == 1 || ep == 2 {
		return int(ep) - 1
	}
	return -1
}
func (n *ckNet) NodeOf(rank int) int     { return 0 }
func (n *ckNet) Multiprocess() bool      { return false }
func (n *ckNet) SetCodec(c nic.Codec)    { n.codec = c }
func (n *ckNet) SetClock(c timing.Clock) { n.clock = c }
func (n *ckNet) Start() error            { return nil }
func (n *ckNet) Close() error            { return nil }

func (n *ckNet) PeerReader(rank int) transport.PeerReader {
	if n.noRead {
		return nil
	}
	return ckReader{n, rank}
}

// ckReader serves rank's send buffers. It fails once the rank is dead,
// and reports a read of a buffer whose send has completed: the sender
// has it back. Only a cut link excuses one — there the ranks condemn
// each other independently, a pairing no transport here makes with
// cross-memory reads.
type ckReader struct {
	n    *ckNet
	rank int
}

func (r ckReader) ReadPeer(dst []byte, addr uint64) (int, error) {
	if r.n.dead[r.rank] {
		return 0, errors.New("ckNet: the peer is gone")
	}
	for _, m := range r.n.mem {
		base := addrOf(m.buf)
		if m.rank != r.rank || addr < base || addr >= base+uint64(len(m.buf)) {
			continue
		}
		if req := *m.req; req == nil || req.IsComplete() {
			if !r.n.cut && r.n.misuse == "" {
				r.n.misuse = "a receiver read a send buffer its send no longer holds"
			}
			return 0, errors.New("ckNet: the buffer was released")
		}
		return copy(dst, m.buf[addr-base:]), nil
	}
	return 0, errors.New("ckNet: no such buffer")
}

func (n *ckNet) post(rank int, dst fabric.EndpointID, payload any, bytes int, token any, signaled bool) error {
	if peer := n.RankOfEndpoint(dst); peer != 1-rank {
		panic(fmt.Sprintf("ckNet: rank %d posted to endpoint %d", rank, dst))
	}
	var c *ckCQE
	if signaled {
		c = &ckCQE{token: token}
		n.cqs[rank] = append(n.cqs[rank], c)
	}
	if n.dead[1-rank] || n.cut {
		if signaled {
			c.failed = true
			return nil
		}
		n.refused[rank]++
		return errors.New("ckNet: peer refused")
	}
	dec, err := nic.RoundTrip(n.codec, payload)
	if err != nil {
		return err
	}
	n.wire[rank] = append(n.wire[rank], ckFrame{
		pkt: fabric.Packet{Src: fabric.EndpointID(rank + 1), Dst: dst, Payload: dec, Bytes: bytes},
		cqe: c,
	})
	return nil
}

// dropWire loses every frame on rank r's wire; their posts fail.
func (n *ckNet) dropWire(r int) {
	for _, f := range n.wire[r] {
		if f.cqe != nil {
			f.cqe.failed = true
		}
	}
	n.wire[r] = nil
}

// ckLink is a rank's nic.Link on ckNet: its queues are plain slices the
// checker can read.
type ckLink struct {
	net  *ckNet
	rank int
	cq   []nic.CQE
	rq   []fabric.Packet
	work nic.WorkCounter
}

func (l *ckLink) ID() fabric.EndpointID { return fabric.EndpointID(l.rank + 1) }
func (l *ckLink) PostSendInline(dst fabric.EndpointID, payload any, bytes int) error {
	return l.net.post(l.rank, dst, payload, bytes, nil, false)
}
func (l *ckLink) PostSend(dst fabric.EndpointID, payload any, bytes int, token any) error {
	return l.net.post(l.rank, dst, payload, bytes, token, true)
}

// pushCQ and pushRQ follow nic.WorkCounter's order: count, queue,
// announce.
func (l *ckLink) pushCQ(e nic.CQE) {
	l.bump(1)
	l.cq = append(l.cq, e)
	l.arrived()
}

func (l *ckLink) pushRQ(p fabric.Packet) {
	l.bump(1)
	l.rq = append(l.rq, p)
	l.arrived()
}

func (l *ckLink) arrived() {
	if l.work != nil {
		l.work.Arrived()
	}
}

func (l *ckLink) bump(n int) {
	if l.work != nil {
		l.work.Add(n)
	}
}

func (l *ckLink) DrainCQ(buf []nic.CQE) []nic.CQE {
	n := min(cap(buf), len(l.cq))
	buf = append(buf[:0], l.cq[:n]...)
	l.cq = l.cq[n:]
	l.bump(-n)
	return buf
}

func (l *ckLink) DrainRQ(buf []fabric.Packet) []fabric.Packet {
	n := min(cap(buf), len(l.rq))
	buf = append(buf[:0], l.rq[:n]...)
	l.rq = l.rq[n:]
	l.bump(-n)
	return buf
}

func (l *ckLink) QueuedCQ() int { return len(l.cq) }
func (l *ckLink) QueuedRQ() int { return len(l.rq) }
func (l *ckLink) BindWork(w nic.WorkCounter) {
	l.work = w
	l.bump(len(l.cq) + len(l.rq))
}
func (l *ckLink) Now() time.Duration                   { return l.net.clock.Now() }
func (l *ckLink) Close() error                         { return nil }
func (l *ckLink) SetArm(func())                        {}
func (l *ckLink) Flush() (made, idle bool)             { return false, true }
func (l *ckLink) PendingTx() int                       { return 0 }
func (l *ckLink) PollRecv() bool                       { return false }
func (l *ckLink) Parking() bool                        { return true }
func (l *ckLink) UseMetrics(*metrics.Registry, string) {}

var errCkCut = fmt.Errorf("%w: the checker cut the link", nic.ErrLinkDown)

// ---------------------------------------------------------------------------
// A world under the checker.

// ckStep is one call of a rank's program: the send of a message, or a
// receive. Receive slot i is posted for message i; the slots past the
// messages are spares, which take up the message a cancelled receive
// leaves behind.
type ckStep struct {
	send bool
	msg  int // the send's message
	slot int // the receive's slot
}

type ckRecv struct {
	req  *Request
	buf  []byte
	from int // the sending rank
}

type ckWorld struct {
	sc       ckScenario
	net      *ckNet
	w        *World
	prog     [2][]ckStep
	pc       [2]int
	payloads [][]byte
	sends    []*Request // by message
	refused  []bool     // by message: the transport refused its post
	recvs    []ckRecv   // by slot
	faulted  bool
}

func newCkWorld(sc ckScenario) *ckWorld {
	cw := &ckWorld{sc: sc, net: &ckNet{}}
	cw.w = NewWorld(ckConfig(cw.net))
	cw.sends = make([]*Request, len(sc.msgs))
	cw.refused = make([]bool, len(sc.msgs))
	for i, m := range sc.msgs {
		p := make([]byte, ckSizes[m.kind])
		for j := range p {
			p[j] = byte(31*i + j + 1)
		}
		cw.payloads = append(cw.payloads, p)
		cw.net.mem = append(cw.net.mem, ckMem{buf: p, rank: m.from, req: &cw.sends[i]})
		cw.prog[m.from] = append(cw.prog[m.from], ckStep{send: true, msg: i})
		cw.prog[1-m.from] = append(cw.prog[1-m.from], ckStep{slot: len(cw.recvs)})
		cw.recvs = append(cw.recvs, ckRecv{from: m.from})
	}
	if sc.fault == ckCancel {
		for r := 0; r < 2; r++ {
			if cw.receives(r) {
				cw.prog[r] = append(cw.prog[r], ckStep{slot: len(cw.recvs)})
				cw.recvs = append(cw.recvs, ckRecv{from: 1 - r})
			}
		}
	}
	return cw
}

func (cw *ckWorld) receives(r int) bool {
	for _, s := range cw.prog[r] {
		if !s.send {
			return true
		}
	}
	return false
}

// enabled lists the events the checker may choose next, the fault's
// last; quiescent reports that only faults are left.
func (cw *ckWorld) enabled() (evs []ckEvent, quiescent bool) {
	n := cw.net
	for r := 0; r < 2; r++ {
		if len(n.wire[r]) > 0 { // a dead rank's frames on the wire still arrive
			evs = append(evs, ckEvent{evDeliver, r})
		}
		if n.dead[r] {
			continue
		}
		if cw.pc[r] < len(cw.prog[r]) {
			evs = append(evs, ckEvent{evOp, r})
		}
		if len(n.cqs[r]) > 0 {
			evs = append(evs, ckEvent{evCQE, r})
		}
		if n.verdict[r] {
			evs = append(evs, ckEvent{evVerdict, r})
		}
	}
	quiescent = len(evs) == 0
	if cw.faulted {
		return evs, quiescent
	}
	for r := 0; r < 2; r++ {
		switch cw.sc.fault {
		case ckKill:
			evs = append(evs, ckEvent{evKill, r})
		case ckRevoke:
			evs = append(evs, ckEvent{evRevoke, r})
		case ckLinkDown:
			if q := n.cqs[r]; len(q) > 0 && !q[0].failed {
				evs = append(evs, ckEvent{evLinkDown, r})
			}
		}
	}
	if cw.sc.fault == ckCancel {
		for k, rv := range cw.recvs {
			if rv.req != nil && !rv.req.IsComplete() && k < len(cw.sc.msgs) {
				evs = append(evs, ckEvent{evCancel, k})
			}
		}
	}
	return evs, quiescent
}

// step applies e, which must be enabled, and settles both ranks; a
// panic — a request completed twice — and a receive a verdict's or a
// revocation's sweep left pending come back as errors.
func (cw *ckWorld) step(e ckEvent) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	evs, _ := cw.enabled()
	ok := false
	for _, x := range evs {
		ok = ok || x == e
	}
	if !ok {
		return fmt.Errorf("event %v is not enabled", e)
	}
	n, r := cw.net, e.arg
	var revoked [2]bool
	for q := range revoked {
		revoked[q] = cw.w.procs[q].commWorld.Revoked()
	}
	switch e.op {
	case evOp:
		cw.call(r)
	case evDeliver:
		f := n.wire[r][0]
		n.wire[r] = n.wire[r][1:]
		if f.cqe != nil {
			f.cqe.delivered = true
		}
		n.links[1-r].pushRQ(f.pkt)
	case evCQE:
		c := n.cqs[r][0]
		n.cqs[r] = n.cqs[r][1:]
		var err error
		if c.failed {
			err = errCkCut
		}
		n.links[r].pushCQ(nic.CQE{Token: c.token, Err: err})
	case evVerdict:
		n.verdict[r] = false
		n.links[r].pushCQ(nic.CQE{Token: nic.PeerDown{Rank: 1 - r}, Err: errCkCut})
	case evKill:
		cw.faulted = true
		n.dead[r] = true
		n.cqs[r] = nil
		n.dropWire(1 - r) // frames the dead rank will never read
		for _, c := range n.cqs[1-r] {
			c.failed = true
		}
		n.verdict[1-r] = true
	case evRevoke:
		cw.faulted = true
		cw.w.procs[r].CommWorld().Revoke()
	case evCancel:
		cw.faulted = true
		if err := cw.recvs[r].req.Cancel(); err != nil {
			return err
		}
	case evLinkDown:
		cw.faulted = true
		n.cqs[r][0].failed = true
		n.cut = true
		for q := 0; q < 2; q++ {
			n.dropWire(q)
			for _, c := range n.cqs[q] {
				c.failed = true
			}
			n.verdict[q] = true
		}
	}
	cw.settle()
	// A rank that took a verdict on its peer, or revoked the world
	// communicator, in this event has swept every receive it had: all
	// of them are from that peer and on that communicator.
	for q := 0; q < 2; q++ {
		if n.dead[q] || !(e.op == evVerdict && r == q) && (revoked[q] || !cw.w.procs[q].commWorld.Revoked()) {
			continue
		}
		for _, st := range cw.prog[q][:cw.pc[q]] {
			if rv := cw.recvs[st.slot]; !st.send && !rv.req.IsComplete() {
				return fmt.Errorf("rank %d: receive in slot %d still pending after the sweep", q, st.slot)
			}
		}
	}
	return nil
}

// settle runs each live rank's progress until it has nothing queued: a
// rank reacts to every event before the next one. A pass drains its
// completion and receive queues entry by entry, so whatever one pass
// does with several entries, a sequence of events each followed by a
// pass does too, and the checker chooses those sequences.
func (cw *ckWorld) settle() {
	for r := 0; r < 2; r++ {
		if cw.net.dead[r] {
			continue
		}
		s, l := cw.w.procs[r].eng.Default(), cw.net.links[r]
		for i := 0; len(l.cq)+len(l.rq) > 0 || s.PendingCont() > 0 || s.PendingAsync() > 0; i++ {
			if i == 1000 {
				panic(fmt.Sprintf("rank %d does not settle", r))
			}
			s.Progress()
		}
	}
}

// call runs rank r's next call.
func (cw *ckWorld) call(r int) {
	st := cw.prog[r][cw.pc[r]]
	cw.pc[r]++
	c := cw.w.procs[r].CommWorld()
	if st.send {
		m := cw.sc.msgs[st.msg]
		cw.net.noRead = m.kind != ckRead
		refused := cw.net.refused[r]
		cw.sends[st.msg] = c.IsendBytes(cw.payloads[st.msg], 1-r, 0)
		cw.refused[st.msg] = cw.net.refused[r] > refused
		cw.net.noRead = false
		return
	}
	rv := &cw.recvs[st.slot]
	rv.buf = make([]byte, ckSizes[ckCTS])
	rv.req = c.IrecvBytes(rv.buf, 1-r, 0)
}

// check is the quiescence assertion: every request of a live rank has
// completed (a spare receive nothing matched is cancelled first), a
// send whose post the transport refused has failed, each stream's
// receives got its messages in order and intact, and the handle tables
// are empty with netOps at 0.
func (cw *ckWorld) check() error {
	n := cw.net
	if n.misuse != "" {
		return errors.New(n.misuse)
	}
	for k, rv := range cw.recvs {
		if k >= len(cw.sc.msgs) && rv.req != nil && !rv.req.IsComplete() {
			rv.req.Cancel()
		}
	}
	for i, m := range cw.sc.msgs {
		if req := cw.sends[i]; !n.dead[m.from] && (req == nil || !req.IsComplete()) {
			return fmt.Errorf("send of message %d (%s) never completed", i, ckKindNames[m.kind])
		}
		if cw.refused[i] && cw.sends[i].Status().Err == nil {
			return fmt.Errorf("send of message %d (%s) succeeded though the transport refused its post", i, ckKindNames[m.kind])
		}
	}
	for to := 0; to < 2; to++ {
		if n.dead[to] {
			continue
		}
		last := -1
		for _, st := range cw.prog[to] {
			if st.send {
				continue
			}
			rv := cw.recvs[st.slot]
			if rv.req == nil || !rv.req.IsComplete() {
				return fmt.Errorf("receive in slot %d never completed", st.slot)
			}
			s := rv.req.Status()
			if s.Err != nil || s.Cancelled {
				continue
			}
			got := -1
			for i, m := range cw.sc.msgs {
				if m.from == rv.from && bytes.Equal(rv.buf[:s.Bytes], cw.payloads[i]) {
					got = i
				}
			}
			if got < 0 {
				return fmt.Errorf("receive in slot %d got %d bytes no message of its stream holds", st.slot, s.Bytes)
			}
			if got <= last {
				return fmt.Errorf("receive in slot %d got message %d after message %d", st.slot, got, last)
			}
			last = got
		}
		v := cw.w.procs[to].nullVCI
		v.hmu.Lock()
		sends, recvs := len(v.sends), len(v.recvs)
		v.hmu.Unlock()
		if sends != 0 || recvs != 0 || v.netOps.Load() != 0 {
			return fmt.Errorf("rank %d: %d send and %d receive handles left, netOps %d", to, sends, recvs, v.netOps.Load())
		}
	}
	return nil
}

// hash summarizes the state the checker can tell apart: the programs'
// positions, the wires and pending completions, each link's queues,
// every request's completion (and whether a send's post was refused),
// both ranks' matching queues and handle tables, and the stream work
// waiting for a pass.
func (cw *ckWorld) hash() uint64 {
	h := fnv.New64a()
	var b []byte
	put := func(xs ...int) {
		for _, x := range xs {
			b = strconv.AppendInt(b, int64(x), 36)
			b = append(b, ',')
		}
	}
	reqID := func(req *Request) int {
		for i, s := range cw.sends {
			if s != nil && s == req {
				return i
			}
		}
		for k, rv := range cw.recvs {
			if rv.req != nil && rv.req == req {
				return 100 + k
			}
		}
		return -1
	}
	hdr := func(p any) {
		x := p.(*wireHdr)
		put(int(x.kind), x.src, x.tag, x.bytes, int(x.sreqID), int(x.rreqID), x.off, b2i(x.last), len(x.payload), b2i(x.addr != 0))
	}
	sendState := func(st *netSendState) {
		put(reqID(st.req), int(st.hid), int(st.rreqID), st.nextOff, st.inflight, b2i(st.failed), b2i(st.advertised))
	}
	token := func(t any) {
		switch t := t.(type) {
		case *Request:
			put(1, reqID(t))
		case *netSendState:
			put(2)
			sendState(t)
		case nic.PeerDown:
			put(3, t.Rank)
		}
	}
	n := cw.net
	put(cw.pc[0], cw.pc[1], b2i(cw.faulted), b2i(n.cut))
	for r := 0; r < 2; r++ {
		put(-1, b2i(n.dead[r]), b2i(n.verdict[r]))
		for _, f := range n.wire[r] {
			hdr(f.pkt.Payload)
			if f.cqe != nil {
				put(b2i(f.cqe.failed))
			}
		}
		put(-2)
		for _, c := range n.cqs[r] {
			token(c.token)
			put(b2i(c.failed), b2i(c.delivered))
		}
		put(-3)
		for _, e := range n.links[r].cq {
			token(e.Token)
			put(b2i(e.Err != nil))
		}
		put(-4)
		for _, p := range n.links[r].rq {
			hdr(p.Payload)
		}
		if n.dead[r] {
			continue
		}
		v := cw.w.procs[r].nullVCI
		s := v.stream
		put(-5, s.PendingCont(), s.PendingAsync(), int(v.netOps.Load()), int(v.hseq), b2i(cw.w.procs[r].commWorld.Revoked()))
		v.match.mu.Lock()
		for i := 0; i < v.match.posted.len(); i++ {
			put(reqID(v.match.posted.at(i).req))
		}
		put(-6)
		for i := 0; i < v.match.unexp.len(); i++ {
			e := v.match.unexp.at(i)
			put(int(e.kind), e.src, e.tag, int(e.sreqID), e.bytes, b2i(e.addr != 0))
		}
		for dead := range v.match.dead {
			put(-7, dead)
		}
		v.match.mu.Unlock()
		v.hmu.Lock()
		var ids []int
		for id := range v.sends {
			ids = append(ids, int(id))
		}
		for id := range v.recvs {
			ids = append(ids, -int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			if id > 0 {
				sendState(v.sends[uint64(id)])
			} else {
				req := v.recvs[uint64(-id)]
				put(-id, reqID(req), req.received)
			}
		}
		v.hmu.Unlock()
	}
	for i, req := range cw.sends {
		ckPutStatus(put, req)
		put(b2i(cw.refused[i]))
	}
	for _, rv := range cw.recvs {
		ckPutStatus(put, rv.req)
	}
	h.Write(b)
	return h.Sum64()
}

func ckPutStatus(put func(...int), req *Request) {
	if req == nil || !req.IsComplete() {
		put(0)
		return
	}
	s := req.Status()
	class := 1
	switch {
	case s.Cancelled:
		class = 2
	case errors.Is(s.Err, ErrProcFailed):
		class = 3
	case errors.Is(s.Err, ErrCommRevoked):
		class = 4
	case errors.Is(s.Err, ErrLinkDown):
		class = 5
	case s.Err != nil:
		class = 6
	}
	put(class, s.Bytes)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Exploration and replay.

// ckReplay runs events on a fresh world of scenario sc; the first event
// that is not enabled or fails is an error.
func ckReplay(sc ckScenario, evs []ckEvent) (*ckWorld, error) {
	cw := newCkWorld(sc)
	for i, e := range evs {
		if err := cw.step(e); err != nil {
			return cw, fmt.Errorf("event %d (%v): %w", i, e, err)
		}
	}
	return cw, nil
}

// ckExplorer enumerates one scenario.
type ckExplorer struct {
	sc     ckScenario
	seen   map[uint64]struct{}
	states int
	leaves int
	fail   error
}

func (x *ckExplorer) explore(prefix []ckEvent, cw *ckWorld) {
	if x.fail != nil {
		return
	}
	h := cw.hash()
	if _, ok := x.seen[h]; ok {
		return
	}
	x.seen[h] = struct{}{}
	x.states++
	evs, quiescent := cw.enabled()
	for i, e := range evs {
		next := cw
		if quiescent || i < len(evs)-1 {
			// The world is needed again: for the next event, or for the
			// check below, which changes it.
			var err error
			if next, err = ckReplay(x.sc, prefix); err != nil {
				x.fail = fmt.Errorf("replay: %w", err)
				return
			}
		}
		path := append(prefix[:len(prefix):len(prefix)], e)
		if err := next.step(e); err != nil {
			x.fail = fmt.Errorf("%w\n  replay: %q %q", err, x.sc, ckEvents(path))
			return
		}
		x.explore(path, next)
		if x.fail != nil {
			return
		}
	}
	if quiescent {
		x.leaves++
		if err := cw.check(); err != nil {
			x.fail = fmt.Errorf("%w\n  replay: %q %q", err, x.sc, ckEvents(prefix))
		}
	}
}

func ckExplore(sc ckScenario) *ckExplorer {
	x := &ckExplorer{sc: sc, seen: make(map[uint64]struct{})}
	x.explore(nil, newCkWorld(sc))
	return x
}

// ckScenarios is what TestRndvChecker enumerates: every kind alone and
// every ordered pair in one direction, pairs that cross, and triples
// that mix the protocols — each under every fault. short keeps one
// message and the crossing pairs. (Three rendezvous, two of them
// crossing, are some 250k states: a minute on two cores.)
func ckScenarios(short bool) []ckScenario {
	var msgs [][]ckMsg
	for k := ckInline; k <= ckRead; k++ {
		msgs = append(msgs, []ckMsg{{k, 0}})
	}
	msgs = append(msgs,
		[]ckMsg{{ckCTS, 0}, {ckCTS, 1}},
		[]ckMsg{{ckRead, 0}, {ckEager, 1}},
		[]ckMsg{{ckCTS, 0}, {ckRead, 1}},
	)
	if !short {
		for a := ckInline; a <= ckRead; a++ {
			for b := ckInline; b <= ckRead; b++ {
				msgs = append(msgs, []ckMsg{{a, 0}, {b, 0}})
			}
		}
		msgs = append(msgs,
			[]ckMsg{{ckEager, 0}, {ckCTS, 0}, {ckRead, 0}},
			[]ckMsg{{ckRead, 0}, {ckCTS, 0}, {ckEager, 0}},
			[]ckMsg{{ckCTS, 0}, {ckInline, 0}, {ckCTS, 0}},
			[]ckMsg{{ckRead, 0}, {ckRead, 0}, {ckEager, 1}},
			[]ckMsg{{ckEager, 0}, {ckRead, 1}, {ckCTS, 0}},
		)
	}
	var out []ckScenario
	for _, m := range msgs {
		for f := ckKill; f <= ckLinkDown; f++ {
			out = append(out, ckScenario{msgs: m, fault: f})
		}
	}
	return out
}

// TestRndvChecker enumerates every interleaving of each scenario's
// events, at most one fault included (see the file comment).
func TestRndvChecker(t *testing.T) {
	start := time.Now()
	total := 0
	for _, sc := range ckScenarios(testing.Short()) {
		x := ckExplore(sc)
		if x.fail != nil {
			t.Fatalf("%v: %v", sc, x.fail)
		}
		if x.leaves == 0 {
			t.Fatalf("%v: no quiescent state among %d", sc, x.states)
		}
		total += x.states
		t.Logf("%-40v %7d states %6d quiescent", sc, x.states, x.leaves)
	}
	t.Logf("%d states in %v", total, time.Since(start))
}

// replayScenario runs a scenario string and event list as the checker
// prints them, then the quiescence check, and returns the world.
func replayScenario(t *testing.T, scenario, events string) *ckWorld {
	t.Helper()
	sc, err := parseScenario(scenario)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := parseEvents(events)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := ckReplay(sc, evs)
	if err != nil {
		t.Fatal(err)
	}
	if evs, quiescent := cw.enabled(); !quiescent {
		t.Fatalf("not quiescent: %s left", ckEvents(evs))
	}
	if err := cw.check(); err != nil {
		t.Fatal(err)
	}
	return cw
}

// TestRndvReplayChunkLinkDownThenVerdict pins the interleaving the one
// abort is most likely to get wrong: a rendezvous send's first chunk
// completes with ErrLinkDown — its frame lost, or delivered — and then
// the peer's verdict arrives, and then the second chunk's failed
// completion. The send completes exactly once (a second completion
// panics, and the replay reports it), with the first cause; the receive
// fails with the sender's verdict.
func TestRndvReplayChunkLinkDownThenVerdict(t *testing.T) {
	for _, c := range []struct{ name, events string }{
		{"lost", "op0 deliver0 op1 deliver1 linkdown0 cqe0 verdict0 cqe0 verdict1"},
		{"delivered", "op0 deliver0 op1 deliver1 deliver0 linkdown0 cqe0 verdict0 cqe0 verdict1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cw := replayScenario(t, "0:cts /linkdown", c.events)
			send, recv := cw.sends[0].Status(), cw.recvs[0].req.Status()
			if !errors.Is(send.Err, ErrLinkDown) || errors.Is(send.Err, ErrProcFailed) {
				t.Errorf("send: %+v, want the chunk's ErrLinkDown", send)
			}
			if !errors.Is(recv.Err, ErrProcFailed) {
				t.Errorf("receive: %+v, want ErrProcFailed", recv)
			}
		})
	}
}

// TestRndvReplayDeliveredFrameFailedSend: a link-down CQE on a frame
// that was delivered — the eager message, a rendezvous's last chunk —
// fails the send with ErrLinkDown while the receive completes with the
// bytes. Each completes once and the handle tables empty: the send
// reports what its link reported, which is not a protocol fault.
func TestRndvReplayDeliveredFrameFailedSend(t *testing.T) {
	for _, c := range []struct{ name, scenario, events string }{
		{"eager", "0:eager /linkdown", "op0 deliver0 op1 linkdown0 cqe0 verdict0 verdict1"},
		{"last-chunk", "0:cts /linkdown",
			"op0 deliver0 op1 deliver1 deliver0 deliver0 cqe0 deliver0 cqe0 linkdown0 cqe0 verdict0 verdict1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cw := replayScenario(t, c.scenario, c.events)
			send, recv := cw.sends[0].Status(), cw.recvs[0].req.Status()
			if !errors.Is(send.Err, ErrLinkDown) {
				t.Errorf("send: %+v, want ErrLinkDown", send)
			}
			if recv.Err != nil || !bytes.Equal(cw.recvs[0].buf[:recv.Bytes], cw.payloads[0]) {
				t.Errorf("receive: %+v, want the message", recv)
			}
		})
	}
}

// TestRndvReplayInlineRefused: a buffered send of at most EagerInline
// bytes whose post the transport refuses — toward a dead rank, or
// across a cut link — completes with the refusal as ErrLinkDown, not
// as a success.
func TestRndvReplayInlineRefused(t *testing.T) {
	for _, c := range []struct{ name, scenario, events string }{
		{"dead-peer", "0:inline /kill", "kill1 op0 verdict0"},
		{"cut-link", "0:eager 0:inline /linkdown", "op0 linkdown0 op0 cqe0 verdict0 verdict1 op1 op1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cw := replayScenario(t, c.scenario, c.events)
			last := len(cw.sends) - 1
			if !cw.refused[last] {
				t.Fatal("the transport accepted the inline post")
			}
			if send := cw.sends[last].Status(); !errors.Is(send.Err, ErrLinkDown) {
				t.Errorf("send: %+v, want ErrLinkDown", send)
			}
		})
	}
}
