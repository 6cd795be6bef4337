package mpi

import (
	"fmt"

	"gompix/internal/datatype"
)

// Isend starts a nonblocking send of count elements of dt from buf to
// rank dst with the given tag (MPI_Isend). The returned request
// completes once the send buffer is reusable; for small messages that
// is immediately (lightweight send), for eager sends when the NIC
// signals, and for rendezvous sends after the CTS'd data drains. Until
// then buf belongs to the library, as in MPI: a contiguous send over a
// byte transport is read straight out of it.
func (c *Comm) Isend(buf []byte, count int, dt *datatype.Datatype, dst, tag int) *Request {
	c.checkRank(dst)
	if count < 0 {
		panic("mpi: negative count")
	}
	if span := datatype.BufferSpan(count, dt); len(buf) < span {
		panic(fmt.Sprintf("mpi: send buffer %d bytes, datatype needs %d", len(buf), span))
	}
	return c.isendWire(c.sendPayload(buf, count, dt), dst, tag)
}

// sendPayload returns the packed bytes of a send. Every link encodes a
// post's payload before it returns, or for a signaled post reads it
// until the CQE that completes the request, and a receiver that reads
// an advertised rendezvous out of this process answers FIN only after
// the read: every reader of the payload is done with it before the
// request completes. So a contiguous buffer is handed down as it is
// (capacity clipped: the library never writes it). Only gapped layouts,
// which have to be packed anyway, get a private copy.
func (c *Comm) sendPayload(buf []byte, count int, dt *datatype.Datatype) []byte {
	n := datatype.PackedSize(count, dt)
	if dt.Contig() {
		return buf[:n:n]
	}
	wire := make([]byte, n)
	datatype.Pack(wire, buf, count, dt)
	return wire
}

// IsendBytes is Isend for a raw byte payload.
func (c *Comm) IsendBytes(data []byte, dst, tag int) *Request {
	return c.Isend(data, len(data), datatype.Byte, dst, tag)
}

// isendWire sends an already packed payload on the pt2pt context.
func (c *Comm) isendWire(wire []byte, dst, tag int) *Request {
	return c.isendWireOn(c.ctx, wire, dst, tag)
}

// Send is the blocking send (MPI_Send): Isend plus a progress wait on
// this communicator's stream.
func (c *Comm) Send(buf []byte, count int, dt *datatype.Datatype, dst, tag int) {
	c.Isend(buf, count, dt, dst, tag).Wait()
}

// SendBytes is Send for a raw byte payload.
func (c *Comm) SendBytes(data []byte, dst, tag int) {
	c.Send(data, len(data), datatype.Byte, dst, tag)
}

// Irecv starts a nonblocking receive into buf for count elements of dt
// from rank src (or AnySource) with the given tag (or AnyTag)
// (MPI_Irecv).
func (c *Comm) Irecv(buf []byte, count int, dt *datatype.Datatype, src, tag int) *Request {
	if src != AnySource {
		c.checkRank(src)
	}
	if count < 0 {
		panic("mpi: negative count")
	}
	if span := datatype.BufferSpan(count, dt); len(buf) < span {
		panic(fmt.Sprintf("mpi: recv buffer %d bytes, datatype needs %d", len(buf), span))
	}
	return c.irecvOn(c.ctx, buf, count, dt, src, tag)
}

// IrecvBytes is Irecv into a raw byte buffer.
func (c *Comm) IrecvBytes(buf []byte, src, tag int) *Request {
	return c.Irecv(buf, len(buf), datatype.Byte, src, tag)
}

// Recv is the blocking receive (MPI_Recv).
func (c *Comm) Recv(buf []byte, count int, dt *datatype.Datatype, src, tag int) Status {
	return c.Irecv(buf, count, dt, src, tag).Wait()
}

// RecvBytes is Recv into a raw byte buffer.
func (c *Comm) RecvBytes(buf []byte, src, tag int) Status {
	return c.Recv(buf, len(buf), datatype.Byte, src, tag)
}

// Iprobe checks, without receiving or blocking, whether a message
// matching (src, tag) has arrived (MPI_Iprobe). It makes one progress
// pass first so arrivals are observed.
func (c *Comm) Iprobe(src, tag int) (Status, bool) {
	c.proc.StreamProgress(c.local.stream)
	return c.local.match.probe(c.ctx, src, tag)
}

// Peek reports whether a matching message is already buffered in the
// unexpected queue, without invoking progress — the probe counterpart
// of RequestIsComplete. It is safe to call from inside an async poll
// function, where invoking progress recursively is prohibited
// (paper §3.4).
func (c *Comm) Peek(src, tag int) (Status, bool) {
	return c.local.match.probe(c.ctx, src, tag)
}

// Probe blocks until a matching message has arrived (MPI_Probe).
func (c *Comm) Probe(src, tag int) Status {
	var st Status
	c.proc.await(c.local.stream, func() (ok bool) {
		st, ok = c.local.match.probe(c.ctx, src, tag)
		return ok
	}, nil)
	return st
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv),
// progressing both until completion.
func (c *Comm) Sendrecv(sendBuf []byte, sendCount int, sendDT *datatype.Datatype, dst, sendTag int,
	recvBuf []byte, recvCount int, recvDT *datatype.Datatype, src, recvTag int) Status {
	rreq := c.Irecv(recvBuf, recvCount, recvDT, src, recvTag)
	sreq := c.Isend(sendBuf, sendCount, sendDT, dst, sendTag)
	sreq.Wait()
	return rreq.Wait()
}
