//go:build unix

package shm

import (
	"os"
	"sync"
	"syscall"
	"testing"
)

// TestAliveFileNeverSeenUnlocked: an alive file that exists but is not
// locked is what a dead rank leaves behind, so a rank that is starting
// must never show one. A prober hammers the path while claimAlive runs:
// whenever it can open the file, the lock must already be held.
func TestAliveFileNeverSeenUnlocked(t *testing.T) {
	requireSupported(t)
	dir := t.TempDir()
	path := alivePath(dir, 3)
	stop := make(chan struct{})
	caught := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0o600)
			if err != nil {
				continue
			}
			// A lock taken on a file that has been unlinked meanwhile
			// is the owner's clean exit, not a window.
			if ok, _ := flockSh(f); ok && linked(f) {
				select {
				case caught <- "opened the alive file and took its lock while its owner was alive":
				default:
				}
			}
			f.Close()
		}
	}()
	for i := 0; i < 300; i++ {
		f, err := claimAlive(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Unlink before unlocking, as a clean shutdown does.
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-caught:
		t.Fatal(msg)
	default:
	}
}

func linked(f *os.File) bool {
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	st, ok := fi.Sys().(*syscall.Stat_t)
	return ok && st.Nlink > 0
}
