package mpi

import (
	"gompix/internal/datatype"
	"gompix/internal/nic"
)

// Message is a matched message handle (MPI_Message): the result of a
// matched probe, which atomically removes one buffered unexpected
// message from the matching queues so no other receive can steal it.
type Message struct {
	comm  *Comm
	entry unexpected
	used  bool
}

// Status describes the matched message.
func (m *Message) Status() Status {
	return Status{Source: m.entry.src, Tag: m.entry.tag, Bytes: m.entry.bytes}
}

// Improbe performs a matched probe (MPI_Improbe): if a matching
// message is buffered, it is dequeued and returned as a Message that
// only Mrecv can consume. One progress pass runs first so fresh
// arrivals are visible.
func (c *Comm) Improbe(src, tag int) (*Message, bool) {
	c.proc.StreamProgress(c.local.stream)
	e, ok := c.local.match.removeUnexpected(c.ctx, src, tag)
	if !ok {
		return nil, false
	}
	return &Message{comm: c, entry: e}, true
}

// Mprobe blocks until a matching message arrives and returns its
// matched handle (MPI_Mprobe).
func (c *Comm) Mprobe(src, tag int) *Message {
	for {
		if m, ok := c.Improbe(src, tag); ok {
			return m
		}
	}
}

// Mrecv receives the matched message into buf (MPI_Mrecv). It returns
// a request; rendezvous-sized messages complete through progress as
// usual. A Message can be received exactly once.
func (m *Message) Mrecv(buf []byte, count int, dt *datatype.Datatype) *Request {
	if m.used {
		panic("mpi: Mrecv on an already-received message")
	}
	m.used = true
	c := m.comm
	e := m.entry
	req := &Request{
		kind: kindRecv, vci: c.local, proc: c.proc,
		recvBuf: buf, recvCount: count, recvDT: dt,
		ctxID: e.ctx,
	}
	switch e.kind {
	case unexpEager:
		deliverEager(req, e.src, e.tag, e.data)
		nic.PutStaging(e.stage)
		m.entry.data, m.entry.stage = nil, nil
	case unexpRTS:
		c.local.answerRTS(req, e)
	default:
		panic("mpi: unknown matched message kind")
	}
	return req
}

// MrecvBytes is Mrecv into a raw byte buffer.
func (m *Message) MrecvBytes(buf []byte) *Request {
	return m.Mrecv(buf, len(buf), datatype.Byte)
}

// removeUnexpected dequeues the first matching unexpected entry.
func (m *matcher) removeUnexpected(ctx uint32, src, tag int) (unexpected, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < m.unexp.len(); i++ {
		if e := m.unexp.at(i); match(e.ctx, ctx, e.src, e.tag, src, tag) {
			found := *e
			m.unexp.remove(i)
			m.unexpHits++
			return found, true
		}
	}
	return unexpected{}, false
}
