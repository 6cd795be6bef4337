//go:build unix

package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildLauncher compiles mpixrun once per test binary.
func buildLauncher(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mpixrun")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building mpixrun: %v\n%s", err, out)
	}
	return bin
}

// TestCrashKillsJobPromptly crashes rank 1 of a 3-rank job and checks
// the launcher's failure contract: a non-zero exit well before the
// surviving ranks' 30s sleep would end, and no orphaned grandchildren
// (the ranks run under "go run", so the real workers are grandchildren
// that only die because the launcher signals the process group).
func TestCrashKillsJobPromptly(t *testing.T) {
	bin := buildLauncher(t)
	piddir := t.TempDir()
	cmd := exec.Command(bin, "-n", "3", "./testdata/behave", "crash")
	cmd.Env = append(os.Environ(), "MPIXTEST_PIDDIR="+piddir)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("mpixrun exited 0 despite a crashed rank; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("mpixrun error = %v, want non-zero exit; output:\n%s", err, out)
	}
	// The survivors sleep 30s; anything close to that means the
	// launcher waited on them instead of killing the job. The budget
	// covers "go run" compiles plus the crash delay, nothing more.
	if elapsed > 15*time.Second {
		t.Fatalf("teardown took %v — the launcher waited for survivors instead of killing them", elapsed)
	}
	if !strings.Contains(string(out), "rank 1") {
		t.Errorf("output does not attribute the failure to rank 1:\n%s", out)
	}

	// Every recorded worker PID must be gone shortly after exit.
	ents, err := os.ReadDir(piddir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no pid files recorded (err=%v)", err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(piddir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				t.Errorf("%s: pid %d still alive after job exit (orphan)", e.Name(), pid)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestOnFailureContinue runs the full ULFM drill under the launcher:
// a 4-rank job loses rank 1 mid-allreduce with -on-failure=continue.
// The launcher must NOT kill the survivors; its roster update drives
// their failure detectors, each survivor recovers (Revoke, Agree,
// Shrink) and proves the 3-rank survivor communicator, and the
// launcher exits non-zero with the failed-rank summary. Any survivor
// that misses an expectation exits 4 and shows up as an extra failed
// rank, failing the assertions below.
func TestOnFailureContinue(t *testing.T) {
	bin := buildLauncher(t)
	// The ranks run race-instrumented: the drill spans the revoke flood,
	// the agreement exchange, and the shrink — all concurrency-heavy.
	behave := filepath.Join(t.TempDir(), "behave")
	if out, err := exec.Command("go", "build", "-race", "-o", behave, "./testdata/behave").CombinedOutput(); err != nil {
		t.Fatalf("building behave: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-n", "4", "-on-failure", "continue", behave, "ftshrink")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("mpixrun exited 0 despite a failed rank; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("mpixrun error = %v, want exit status 1; output:\n%s", err, out)
	}
	s := string(out)
	for _, r := range []int{0, 2, 3} {
		want := "[" + strconv.Itoa(r) + "] ftshrink ok size=3 failed=[1]"
		if !strings.Contains(s, want) {
			t.Errorf("missing survivor line %q; output:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "continued past failed ranks [1]") {
		t.Errorf("missing continue summary; output:\n%s", s)
	}
}

// TestSenderProgressesWhileReceiverComputes is the two-process half of
// the doorbell protocol: a receiver that polled a moment ago and then
// computes for 400 ms without calling MPI is still rung — its poll
// stamp goes stale, the sender's backlog re-evaluates it on every flush
// pass — so its watcher drains the ring and the sender's sixteen 1 MiB
// Waits complete during the computation, not after it. The ranks check
// the timing and the bell count themselves and exit 4 on a miss.
func TestSenderProgressesWhileReceiverComputes(t *testing.T) {
	bin := buildLauncher(t)
	behave := filepath.Join(t.TempDir(), "behave")
	if out, err := exec.Command("go", "build", "-o", behave, "./testdata/behave").CombinedOutput(); err != nil {
		t.Fatalf("building behave: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-n", "2", behave, "stall").CombinedOutput()
	if err != nil {
		t.Fatalf("mpixrun: %v\n%s", err, out)
	}
	for _, want := range []string{"[0] stall ok sends=16", "[1] stall ok recvs=16"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("missing %q; output:\n%s", want, out)
		}
	}
}

// TestDrillNeedsOneNode: the shared-memory drills refuse, with a
// message and no panic, ranks that mpixrun placed on different nodes.
func TestDrillNeedsOneNode(t *testing.T) {
	bin := buildLauncher(t)
	behave := filepath.Join(t.TempDir(), "behave")
	if out, err := exec.Command("go", "build", "-o", behave, "./testdata/behave").CombinedOutput(); err != nil {
		t.Fatalf("building behave: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-n", "2", "-hosts", "a,b", behave, "stall").CombinedOutput()
	if err == nil {
		t.Fatalf("mpixrun -hosts a,b stall succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "the stall drill needs both ranks on one node") || strings.Contains(string(out), "panic") {
		t.Fatalf("want the drill's one-node message and no panic; output:\n%s", out)
	}
}

// TestRendezvousTwoProcesses sends a 1 MiB rendezvous message between
// two OS processes on one node. The path is the host's call — one read
// of the sender's memory where cross-memory reads between sibling
// processes are allowed, the rings where Yama or a seccomp filter
// refuses them — and the bytes must arrive either way (rank 1 checks
// them and exits 4 on a miss). The test logs the path each rank's
// probe chose.
func TestRendezvousTwoProcesses(t *testing.T) {
	bin := buildLauncher(t)
	behave := filepath.Join(t.TempDir(), "behave")
	if out, err := exec.Command("go", "build", "-o", behave, "./testdata/behave").CombinedOutput(); err != nil {
		t.Fatalf("building behave: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-n", "2", behave, "cma").CombinedOutput()
	if err != nil {
		t.Fatalf("mpixrun: %v\n%s", err, out)
	}
	for _, want := range []string{"[0] cma ok path=", "[1] cma ok path="} {
		if !strings.Contains(string(out), want) {
			t.Errorf("missing %q; output:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "cma ok") {
			t.Log(line)
		}
	}
}

// TestLongLinePassthrough checks that a rank's output line larger than
// bufio.Scanner's 1 MiB token cap survives the prefix multiplexer
// intact instead of being silently dropped.
func TestLongLinePassthrough(t *testing.T) {
	bin := buildLauncher(t)
	out, err := exec.Command(bin, "-n", "1", "./testdata/behave", "longline").CombinedOutput()
	if err != nil {
		t.Fatalf("mpixrun: %v\n%.2000s", err, out)
	}
	want := "[0] " + strings.Repeat("x", 2<<20)
	if !strings.Contains(string(out), want) {
		t.Fatalf("long line mangled: got %d bytes, %d of them 'x' (want %d)",
			len(out), strings.Count(string(out), "x"), 2<<20)
	}
}
