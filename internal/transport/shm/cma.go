package shm

import (
	"encoding/binary"
	"os"
	"sync/atomic"
	"unsafe"

	"gompix/internal/transport"
)

// Cross-memory attach (CMA): a same-node rendezvous is one read by the
// receiver straight out of the sender's buffer (process_vm_readv) in
// place of two copies through ring cells. Whether a peer's memory can be
// read is a property of the pair — Yama's ptrace_scope, namespaces,
// seccomp and the platform all have a say — so it is found out, never
// configured. At New each rank publishes a probe record in the job
// directory — the contents of its alive file, which exists and is held
// anyway:
//
//	rank<r>.alive   pid (u64 LE) | address of the probe word (u64 LE)
//
// and keeps the probe word, probeMagic ^ epoch ^ rank, alive for the
// transport's lifetime. The first PeerReader call for a peer reads that
// word out of the peer's address space: the expected value proves the
// read reached the right process of the right job. The verdict is
// cached for the pair: verified, or refused — a mismatch, EPERM, ESRCH,
// ENOSYS, any failed read — after which the pair's rendezvous stays on
// the rings. A record not yet published (no alive file, or an empty
// one) decides nothing.

// probeMagic keeps a word of zeros (epoch 0, rank 0) from passing the
// probe.
const probeMagic = 0x676f6d7069782d31 // "gompix-1"

// Probe verdicts (peer.cma).
const (
	cmaUnknown int32 = iota
	cmaVerified
	cmaRefused
)

const probeRecordLen = 16

// probeValue is the word a rank's probe record points at.
func probeValue(epoch uint64, rank int) uint64 {
	return probeMagic ^ epoch ^ uint64(rank)
}

// publishProbe writes this rank's probe record into its alive file: one
// write of the whole record.
func publishProbe(alive *os.File, word *uint64) error {
	var rec [probeRecordLen]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(os.Getpid()))
	binary.LittleEndian.PutUint64(rec[8:], uint64(uintptr(unsafe.Pointer(word))))
	_, err := alive.WriteAt(rec[:], 0)
	return err
}

// peerReader reads one verified peer's memory (transport.PeerReader).
type peerReader struct {
	net *Network
	pid int
}

// ReadPeer copies from the peer's address space (process_vm_readv).
func (r *peerReader) ReadPeer(dst []byte, addr uint64) (int, error) {
	k, err := readProcess(r.pid, dst, addr)
	if k > 0 {
		n := r.net
		n.cmaReads.Add(1)
		n.cmaBytes.Add(uint64(k))
		if met := n.met.Load(); met != nil {
			met.cmaReads.Inc()
			met.cmaBytes.Add(uint64(k))
		}
	}
	return k, err
}

// PeerReader returns the reader of a same-node peer's memory, or nil
// when the pair is refused or the peer has not published its probe
// record yet (transport.Transport). The first call for a peer probes
// it.
func (n *Network) PeerReader(rank int) transport.PeerReader {
	if rank < 0 || rank >= len(n.peers) || n.peers[rank] == nil || n.closed.Load() {
		return nil
	}
	p := n.peers[rank]
	switch p.cma.Load() {
	case cmaVerified:
		return &p.reader
	case cmaRefused:
		return nil
	}
	return n.probeCMA(p)
}

// probeCMA reads the peer's probe word and records the verdict.
func (n *Network) probeCMA(p *peer) transport.PeerReader {
	p.cmaMu.Lock()
	defer p.cmaMu.Unlock()
	switch p.cma.Load() {
	case cmaVerified:
		return &p.reader
	case cmaRefused:
		return nil
	}
	rec, err := os.ReadFile(alivePath(n.dir, p.rank))
	if os.IsNotExist(err) || err == nil && len(rec) == 0 {
		return nil // not published yet: ask again next time
	}
	if err == nil && len(rec) == probeRecordLen {
		pid := int(binary.LittleEndian.Uint64(rec[0:]))
		var word [8]byte
		k, err := readProcess(pid, word[:], binary.LittleEndian.Uint64(rec[8:]))
		if err == nil && k == len(word) && binary.NativeEndian.Uint64(word[:]) == probeValue(n.cfg.Epoch, p.rank) {
			p.reader = peerReader{net: n, pid: pid}
			p.cma.Store(cmaVerified)
			return &p.reader
		}
	}
	p.cma.Store(cmaRefused)
	n.cmaRefused.Add(1)
	if met := n.met.Load(); met != nil {
		met.cmaRefused.Inc()
	}
	return nil
}

// SpoilProbe makes this rank's probe word name the wrong magic, so that
// every peer's probe of it is refused and those pairs run their
// rendezvous over the rings (test hook: the fallback path). Peers that
// already verified the pair keep their verdict.
func (n *Network) SpoilProbe() {
	atomic.StoreUint64(n.probeWord, ^probeValue(n.cfg.Epoch, n.cfg.Rank))
}
