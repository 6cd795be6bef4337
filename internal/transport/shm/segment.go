package shm

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Segment lifecycle. One job owns one directory of mmap files:
//
//	<base>/gompix-shm-<epoch>/
//	    job.lock           every live rank holds LOCK_SH
//	    rank<r>.alive      rank r holds LOCK_EX while alive; holds its
//	                       probe record (pid, probe-word address: cma.go)
//	    p<src>to<dst>.ring one mapped SPSC ring per directed pair
//
// <base> is /dev/shm when available (a tmpfs, so "files" are pages),
// else the system temp dir; tests override it via Config.Dir. The
// advisory locks are the liveness oracle: flock is held by an open
// file description, so a SIGKILL'd process drops its locks the moment
// the kernel reaps it, with no cleanup code required. A rank probing a
// peer's alive file with a non-blocking shared lock learns, in one
// syscall, whether the peer still exists.
//
// Hygiene: every producer unlinks its own ring files and alive file on
// graceful close (existing mappings stay valid), so a clean finalize
// leaves an empty directory that the last rank out removes. Crashed
// jobs leave their directory behind; the next job's startup sweep
// reclaims any sibling job directory whose job.lock is no longer held
// by anyone (LOCK_EX acquirable) and whose mtime is older than the
// stale threshold — the age guard keeps the sweep from racing a job
// that created its directory but has not locked it yet.

const (
	dirPrefix    = "gompix-shm-"
	jobLockName  = "job.lock"
	defaultStale = time.Minute
)

// baseDir picks the segment parent directory: explicit override,
// /dev/shm when it is a writable directory, else the temp dir.
func baseDir(override string) string {
	if override != "" {
		return override
	}
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if f, err := os.CreateTemp("/dev/shm", "gompix-probe-*"); err == nil {
			f.Close()
			os.Remove(f.Name())
			return "/dev/shm"
		}
	}
	return os.TempDir()
}

// jobDir returns the per-job segment directory path.
func jobDir(base string, epoch uint64) string {
	return filepath.Join(base, fmt.Sprintf("%s%d", dirPrefix, epoch))
}

func ringPath(dir string, src, dst int) string {
	return filepath.Join(dir, fmt.Sprintf("p%dto%d.ring", src, dst))
}

func alivePath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%d.alive", rank))
}

// openRingFile creates-or-opens one directed pair's ring file at its
// deterministic size and maps it. Both sides run this; O_CREATE plus
// ftruncate-to-same-size make it idempotent.
func openRingFile(dir string, src, dst, cells, cellPayload int) ([]byte, error) {
	path := ringPath(dir, src, dst)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	size := ringSize(cells, cellPayload)
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() != int64(size) {
		if fi.Size() != 0 {
			return nil, fmt.Errorf("shm: %s has size %d, want %d (geometry mismatch?)", path, fi.Size(), size)
		}
		if err := f.Truncate(int64(size)); err != nil {
			return nil, err
		}
	}
	return mmapFile(f, size)
}

// claimAlive creates this rank's alive file and takes the exclusive
// lock that is its liveness token. The returned file must stay open
// for the transport's lifetime.
//
// The file appears under its name already locked: it is created under
// a private name, locked, and only then linked into place. Created in
// place and locked afterwards, it was for a moment — a scheduling
// quantum, on a busy host — an alive file nobody held, which is what a
// dead rank leaves behind: a peer's probe landing there reached a
// verdict on a rank that was starting. (The lock belongs to the open
// file, so it carries over to the new name.) A name that is taken
// already belongs to a duplicate of this rank, or to a dead predecessor
// in the same epoch whose file is then locked as it stands.
func claimAlive(dir string, rank int) (*os.File, error) {
	path := alivePath(dir, rank)
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	if ok, err := flockEx(f); err != nil || !ok {
		f.Close()
		return nil, fmt.Errorf("shm: locking %s: %v", tmp, err)
	}
	if err := os.Link(tmp, path); err == nil {
		return f, nil
	} else if !os.IsExist(err) {
		f.Close()
		return nil, err
	}
	f.Close()
	if f, err = os.OpenFile(path, os.O_RDWR, 0o600); err != nil {
		return nil, err
	}
	ok, err := flockEx(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if !ok {
		f.Close()
		return nil, fmt.Errorf("shm: rank %d alive lock already held (duplicate rank in epoch?)", rank)
	}
	return f, nil
}

// joinJob takes the shared job lock that marks this process as a live
// member of the job directory.
func joinJob(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, jobLockName), os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	if ok, err := flockSh(f); err != nil || !ok {
		f.Close()
		if err == nil {
			err = fmt.Errorf("shm: job lock unexpectedly exclusive")
		}
		return nil, err
	}
	return f, nil
}

// reclaimStale removes sibling job directories that no live process is
// a member of. A directory is reclaimable when its job.lock exclusive
// lock is acquirable (no rank holds the shared lock — they all exited
// or were killed) and its mtime is older than staleAfter.
func reclaimStale(base, self string, staleAfter time.Duration) (removed int) {
	if staleAfter <= 0 {
		staleAfter = defaultStale
	}
	entries, err := os.ReadDir(base)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), dirPrefix) {
			continue
		}
		dir := filepath.Join(base, e.Name())
		if dir == self {
			continue
		}
		fi, err := e.Info()
		if err != nil || time.Since(fi.ModTime()) < staleAfter {
			continue
		}
		lf, err := os.OpenFile(filepath.Join(dir, jobLockName), os.O_RDWR, 0o600)
		if err != nil {
			if os.IsNotExist(err) {
				// A job dir with no lock file never got off the ground
				// (or someone else is mid-reclaim); age already vetted it.
				if os.RemoveAll(dir) == nil {
					removed++
				}
			}
			continue
		}
		ok, err := flockEx(lf)
		if err == nil && ok {
			// No live member: safe to unlink everything. The lock is
			// released by the Close below; a racing reclaimer just
			// finds an emptier directory.
			if os.RemoveAll(dir) == nil {
				removed++
			}
		}
		lf.Close()
	}
	return removed
}
