//go:build linux && (amd64 || arm64)

package shm

import (
	"bytes"
	"errors"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

func addrOf(b []byte) uint64 { return uint64(uintptr(unsafe.Pointer(&b[0]))) }

// TestCMAProbeVerifiesPair: two ranks of one job read each other's
// probe word, so each hands out a reader of the other, which copies
// exactly the bytes at an address (the ranks share this process: a
// buffer here is the peer's memory too) and counts them. A rank has no
// reader of itself, nor of a rank outside the job.
func TestCMAProbeVerifiesPair(t *testing.T) {
	requireSupported(t)
	nets, _ := newPair(t, t.TempDir(), 21)
	defer nets[0].Close()
	defer nets[1].Close()
	rd := nets[0].PeerReader(1)
	if rd == nil || nets[1].PeerReader(0) == nil {
		t.Skip("this host refuses cross-memory reads")
	}
	if nets[0].PeerReader(0) != nil || nets[0].PeerReader(2) != nil || nets[0].PeerReader(-1) != nil {
		t.Fatal("a reader of this rank itself, or of a rank outside the job")
	}
	src := make([]byte, 3<<20)
	for i := range src {
		src[i] = byte(i * 31)
	}
	dst := make([]byte, len(src)-5)
	got := 0
	for got < len(dst) {
		k, err := rd.ReadPeer(dst[got:], addrOf(src)+5+uint64(got))
		if err != nil {
			t.Fatal(err)
		}
		got += k
	}
	if !bytes.Equal(dst, src[5:]) {
		t.Fatal("the reader copied other bytes than those at the address")
	}
	if st := nets[0].Stats(); st.CMAReads == 0 || st.CMABytes != uint64(len(dst)) || st.CMARefused != 0 {
		t.Fatalf("stats %+v: want reads, %d bytes, no refusal", st, len(dst))
	}
}

// TestCMAProbeRefusal: a probe word that names the wrong magic refuses
// the pair, once — the verdict is kept, not probed again — and only in
// that direction: the spoiled rank still reads its peer.
func TestCMAProbeRefusal(t *testing.T) {
	requireSupported(t)
	nets, _ := newPair(t, t.TempDir(), 22)
	defer nets[0].Close()
	defer nets[1].Close()
	nets[1].SpoilProbe()
	for i := 0; i < 3; i++ {
		if nets[0].PeerReader(1) != nil {
			t.Fatal("a spoiled probe word passed the probe")
		}
	}
	if n := nets[0].Stats().CMARefused; n != 1 {
		t.Fatalf("CMARefused = %d, want 1 (one probe per pair)", n)
	}
	if nets[1].PeerReader(0) == nil {
		t.Skip("this host refuses cross-memory reads")
	}
}

// TestCMAProbeWaitsForRecord: a peer that has not published its probe
// record yet is neither verified nor refused; the first call after it
// appears decides.
func TestCMAProbeWaitsForRecord(t *testing.T) {
	requireSupported(t)
	nets, _ := newPair(t, t.TempDir(), 23)
	defer nets[0].Close()
	defer nets[1].Close()
	if err := nets[1].alive.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if nets[0].PeerReader(1) != nil || nets[0].Stats().CMARefused != 0 {
		t.Fatal("a missing probe record decided the pair")
	}
	if err := publishProbe(nets[1].alive, nets[1].probeWord); err != nil {
		t.Fatal(err)
	}
	if nets[0].PeerReader(1) == nil && nets[0].Stats().CMARefused == 0 {
		t.Fatal("the published record decided nothing")
	}
}

// TestReadProcessErrors: an address the process has not mapped readable
// is EFAULT, a process that does not exist ESRCH — no crash, nothing
// copied.
func TestReadProcessErrors(t *testing.T) {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, page, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	dst := make([]byte, 64)
	if k, err := readProcess(os.Getpid(), dst, addrOf(mem)); !errors.Is(err, syscall.EFAULT) || k != 0 {
		t.Fatalf("read of a PROT_NONE page: %d bytes, %v; want EFAULT", k, err)
	}
	if k, err := readProcess(1<<30, dst, addrOf(dst)); !errors.Is(err, syscall.ESRCH) || k != 0 {
		t.Fatalf("read of a missing process: %d bytes, %v; want ESRCH", k, err)
	}
	if bytes.Count(dst, []byte{0}) != len(dst) {
		t.Fatal("a failed read copied bytes")
	}
}
