// behave is the mpixrun test target: a tiny rank program whose
// behavior is selected by its first argument, so launcher tests can
// script crashes and output shapes without real MPI traffic.
//
//	crash     rank 1 exits 3 shortly after startup; every other rank
//	          records its PID and sleeps far longer than the test
//	          budget — the launcher must kill it.
//	longline  prints one line much larger than bufio.Scanner's default
//	          token limit, then exits 0.
//	ftshrink  a real MPI job under -on-failure=continue: rank 1 dies
//	          after a first barrier; the survivors observe the failed
//	          allreduce (ErrProcFailed), run the ULFM drill — Revoke,
//	          AckFailed, Agree twice, Shrink — and finish a barrier and
//	          an allreduce on the survivor communicator, printing
//	          "ftshrink ok size=N failed=[...]" on success.
//	stall     two ranks on one node: rank 1 finishes a barrier and then
//	          computes, without one MPI call, for 400 ms in 5 ms
//	          stretches, while rank 0 streams sixteen 1 MiB eager
//	          messages at it — each larger than the ring — and waits
//	          for every one. The sends can only complete if rank 0 rings
//	          rank 1's doorbell although rank 1 was polling a moment
//	          ago, and rank 1's watcher keeps the ring draining: rank 0
//	          must be done in well under the window. Both ranks print
//	          "stall ok ..." on success.
//	cma       two ranks on one node: rank 0 sends rank 1 a 1 MiB
//	          rendezvous message, and rank 1 checks every byte. Each rank
//	          reports the path its probe of the other chose — "cma" when
//	          it can read the peer's memory, "rings" when the host
//	          refuses (Yama's ptrace_scope, a seccomp filter) — and
//	          prints "cma ok path=..." on success, whichever it is.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gompix/internal/transport/composite"
	"gompix/internal/transport/shm"
	"gompix/mpix"
)

func main() {
	mode := ""
	if len(os.Args) > 1 {
		mode = os.Args[1]
	}
	rank, _ := strconv.Atoi(os.Getenv("GOMPIX_RANK"))
	switch mode {
	case "crash":
		if dir := os.Getenv("MPIXTEST_PIDDIR"); dir != "" {
			pid := []byte(strconv.Itoa(os.Getpid()))
			os.WriteFile(filepath.Join(dir, fmt.Sprintf("rank%d.pid", rank)), pid, 0o644)
		}
		if rank == 1 {
			time.Sleep(200 * time.Millisecond) // let the survivors settle in
			os.Exit(3)
		}
		time.Sleep(30 * time.Second) // must be killed, not awaited
	case "longline":
		fmt.Println(strings.Repeat("x", 2<<20))
	case "ftshrink":
		ftshrink(rank)
	case "stall":
		stall(rank)
	case "cma":
		cma(rank)
	default:
		fmt.Fprintf(os.Stderr, "behave: unknown mode %q\n", mode)
		os.Exit(2)
	}
}

// die reports a failed expectation and exits 4, which the launcher
// surfaces as another failed rank — the test treats any rank exiting
// non-zero as a drill failure.
func die(rank int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "behave rank %d: %s\n", rank, fmt.Sprintf(format, args...))
	os.Exit(4)
}

// sameNode returns the shared-memory leg of a world whose two ranks
// share a node, and ends the drill with a message when they do not
// (mpixrun -hosts a,b): the drills exercise that leg.
func sameNode(w *mpix.World, rank int, drill string) *shm.Network {
	local := w.Transport().(*composite.Network).Local()
	if local == nil {
		die(rank, "the %s drill needs both ranks on one node", drill)
	}
	return local.(*shm.Network)
}

// stall is the non-polling-consumer drill. A consumer that polls is
// never rung; one that stops polling without parking — it went
// computing — has to be, or a producer with more to send than the ring
// holds would wait for the end of the computation.
func stall(rank int) {
	const (
		msgs    = 16
		size    = 1 << 20
		window  = 400 * time.Millisecond
		stretch = 5 * time.Millisecond
	)
	// Eager up to 2 MiB: a rendezvous send would wait for rank 1's CTS,
	// which only its own progress can produce.
	w, err := mpix.NewWorldFromEnv(mpix.Config{RndvThreshold: 2 * size})
	if err != nil {
		die(rank, "NewWorldFromEnv: %v", err)
	}
	sn := sameNode(w, rank, "stall")
	w.Run(func(p *mpix.Proc) {
		comm := p.CommWorld()
		buf := make([]byte, size)
		comm.Barrier()
		if rank == 0 {
			start := time.Now()
			for i := 0; i < msgs; i++ {
				buf[0], buf[size-1] = byte(i), byte(i)
				if st := comm.IsendBytes(buf, 1, i).Wait(); st.Err != nil {
					die(rank, "send %d: %v", i, st.Err)
				}
			}
			elapsed := time.Since(start)
			if elapsed > window/2 {
				die(rank, "%d sends took %v: they waited for the receiver's %v of computing", msgs, elapsed, window)
			}
			bells := sn.Stats().BellsRung
			if bells == 0 {
				die(rank, "no doorbell rung for a receiver that was not polling")
			}
			fmt.Printf("stall ok sends=%d in %v bells=%d\n", msgs, elapsed.Round(time.Millisecond), bells)
			return
		}
		sink := 0
		for end := time.Now().Add(window); time.Now().Before(end); {
			for s := time.Now().Add(stretch); time.Now().Before(s); {
				sink++
			}
		}
		for i := 0; i < msgs; i++ {
			if st := comm.RecvBytes(buf, 0, i); st.Err != nil || buf[0] != byte(i) || buf[size-1] != byte(i) {
				die(rank, "recv %d: err=%v payload %d..%d", i, st.Err, buf[0], buf[size-1])
			}
		}
		fmt.Printf("stall ok recvs=%d after %d compute iterations\n", msgs, sink)
	})
}

// cma is the same-node rendezvous between two processes: one read of
// the sender's memory by the receiver where the host allows it, the
// rings where it does not. The bytes must arrive either way.
func cma(rank int) {
	const size = 1 << 20
	w, err := mpix.NewWorldFromEnv()
	if err != nil {
		die(rank, "NewWorldFromEnv: %v", err)
	}
	sn := sameNode(w, rank, "cma")
	w.Run(func(p *mpix.Proc) {
		comm := p.CommWorld()
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i*7 + 3)
		}
		comm.Barrier()
		if rank == 0 {
			comm.SendBytes(msg, 1, 1)
		} else {
			buf := make([]byte, size)
			if st := comm.RecvBytes(buf, 0, 1); st.Err != nil || st.Bytes != size {
				die(rank, "recv: %+v", st)
			}
			for i := range buf {
				if buf[i] != msg[i] {
					die(rank, "byte %d of the message is %d, want %d", i, buf[i], msg[i])
				}
			}
		}
		comm.Barrier()
		// Asked after the exchange: before it, the peer may not have
		// published its probe record yet, which decides nothing.
		path := "rings"
		if sn.PeerReader(1-rank) != nil {
			path = "cma"
		}
		st := sn.Stats()
		if st.CMAReads > 0 && path != "cma" {
			die(rank, "%d cross-memory reads over a pair the probe refused", st.CMAReads)
		}
		fmt.Printf("cma ok path=%s reads=%d bytes=%d\n", path, st.CMAReads, st.CMABytes)
	})
}

// ftshrink is the end-to-end ULFM recovery drill under the real
// launcher. Rank 1 exits hard (no teardown) after the first barrier;
// mpixrun's -on-failure=continue roster update drives every survivor's
// failure detector, so the in-flight world allreduce aborts with
// ErrProcFailed everywhere — including on ranks whose blocked stage
// never addressed the dead rank. Survivors then recover exactly as a
// ULFM application would and prove the shrunken communicator works.
func ftshrink(rank int) {
	reg := mpix.NewMetrics()
	reg.Enable()
	w, err := mpix.NewWorldFromEnv(mpix.WithMetrics(reg))
	if err != nil {
		die(rank, "NewWorldFromEnv: %v", err)
	}
	w.Run(func(p *mpix.Proc) {
		comm := p.CommWorld()
		n := comm.Size()
		comm.Barrier()
		if rank == 1 {
			// The sleep lets the transport flush this rank's final barrier
			// frames so every survivor's first barrier completes cleanly;
			// the exit itself is abrupt — no Shutdown, sockets reset.
			time.Sleep(300 * time.Millisecond)
			os.Exit(3)
		}

		in := make([]byte, 4)
		out := make([]byte, 4)
		binary.LittleEndian.PutUint32(in, uint32(rank+1))
		// The abort cause is a race the drill must tolerate: this rank's
		// own verdict (ErrProcFailed) against the revoke flood from a
		// survivor that detected first (ErrCommRevoked).
		_, werr := comm.Iallreduce(in, out, 1, mpix.Int32, mpix.OpSum).WaitDeadline(30 * time.Second)
		if !errors.Is(werr, mpix.ErrProcFailed) && !errors.Is(werr, mpix.ErrCommRevoked) {
			die(rank, "world allreduce err = %v, want ErrProcFailed or ErrCommRevoked", werr)
		}

		comm.Revoke()
		comm.AckFailed()
		if _, err := comm.Agree(1); err != nil && !errors.Is(err, mpix.ErrProcFailed) {
			die(rank, "first Agree: %v", err)
		}
		failed := comm.AckFailed()
		if len(failed) != 1 || failed[0] != 1 {
			die(rank, "FailedRanks = %v, want [1]", failed)
		}
		if v, err := comm.Agree(1); err != nil || v != 1 {
			die(rank, "second Agree = (%d, %v), want (1, nil)", v, err)
		}
		child, err := comm.Shrink()
		if err != nil {
			die(rank, "Shrink: %v", err)
		}
		if child.Size() != n-1 {
			die(rank, "child size = %d, want %d", child.Size(), n-1)
		}
		child.Barrier()
		child.Allreduce(in, out, 1, mpix.Int32, mpix.OpSum)
		// Survivors contribute worldRank+1; only the dead rank 1's
		// contribution (2) is missing from the full-world sum.
		want := uint32(n*(n+1)/2 - 2)
		if got := binary.LittleEndian.Uint32(out); got != want {
			die(rank, "survivor allreduce = %d, want %d", got, want)
		}

		d := reg.Snapshot()
		for ev, wantC := range map[string]uint64{"revokes": 1, "agrees": 2, "shrinks": 1} {
			name := fmt.Sprintf("rank%d.comm.%s", rank, ev)
			if got := d.Counter(name); got != wantC {
				die(rank, "%s = %d, want %d", name, got, wantC)
			}
		}
		fmt.Printf("ftshrink ok size=%d failed=%v\n", child.Size(), failed)
	})
}
