//go:build linux

package mpi

import (
	"bytes"
	"errors"
	"os"
	"syscall"
	"testing"

	"gompix/internal/datatype"
	"gompix/internal/transport/tcp"
)

// TestHostileRTSAddress: an advertised RTS promises that the sender's
// memory holds the message at its address. One whose bytes cannot be
// read — an address the sender never mapped, or a length that runs past
// its mapping — must fail the peer, and with it the receive, with
// ErrProcFailed, as a DATA chunk outside its message does
// (TestHostileDataFrame): no crash, and no byte written outside the
// receive's own buffer. A gapped datatype's buffer is not written at
// all (the read lands in the reassembly buffer), nor is any buffer when
// nothing at the address is readable; a contiguous one keeps what a
// read that faults partway copied, as a failed receive may.
func TestHostileRTSAddress(t *testing.T) {
	page := os.Getpagesize()
	// Two pages of "sender memory": the first readable, the second not.
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	for i := range mem[:page] {
		mem[i] = 0xAB
	}
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	base := addrOf(mem)
	for _, c := range []struct {
		name  string
		addr  uint64
		total int
	}{
		{"unmapped", base + uint64(page), page},
		{"past-the-mapping", base, 2 * page},
	} {
		for _, dt := range []*datatype.Datatype{datatype.Byte, datatype.Vector(c.total, 1, 2, datatype.Byte)} {
			layout := "contig"
			if !dt.Contig() {
				layout = "gapped"
			}
			t.Run(c.name+"/"+layout, func(t *testing.T) {
				worlds, comps := compositeWorlds(t, 2, []int{0, 0}, Config{}, tcp.Config{})
				defer worlds[0].Close()
				defer worlds[1].Close()
				if comps[0].PeerReader(1) == nil {
					t.Skip("this host refuses cross-memory reads between the ranks")
				}
				p := worlds[0].Proc(0)
				v := p.vcis[0]
				count := c.total / dt.Size()
				span := datatype.BufferSpan(count, dt)
				store := make([]byte, span+page) // the receive's buffer, then memory it does not own
				req := &Request{kind: kindRecv, vci: v, proc: p, recvBuf: store[:span], recvCount: count, recvDT: dt}
				if _, matched, err := v.match.postRecv(req, 0, 1, 7, 1); matched || err != nil {
					t.Fatalf("posting the receive: matched=%v err=%v", matched, err)
				}
				peer := worlds[1].Transport().EndpointOf(1, 0)
				v.handleNetMsg(&wireHdr{
					kind: kindRTSMsg, src: 1, tag: 7, bytes: c.total,
					srcEP: peer, sreqID: 1, addr: c.addr,
				}, peer)
				for i := 0; i < 1000 && !req.IsComplete(); i++ {
					v.stream.Progress()
				}
				if !req.IsComplete() || !errors.Is(req.Status().Err, ErrProcFailed) {
					t.Fatalf("receive after an unreadable RTS: complete=%v status=%+v", req.IsComplete(), req.Status())
				}
				if bytes.IndexByte(store[span:], 0xAB) >= 0 {
					t.Fatal("the read wrote past the receive's buffer")
				}
				if (c.name == "unmapped" || !dt.Contig()) && bytes.IndexByte(store, 0xAB) >= 0 {
					t.Fatal("the read wrote into the receive's buffer")
				}
				if v.lookupRecv(1) != nil || len(v.recvs) != 0 {
					t.Fatal("failed receive still registered")
				}
			})
		}
	}
}
