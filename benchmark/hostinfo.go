package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// hostInfo is what a reader needs to compare two result files without
// guessing the host.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	LLCBytes   int    `json:"llc_bytes"`
	GitCommit  string `json:"git_commit"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LLCBytes:   llcBytes(),
		GitCommit:  gitCommit(),
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// llcBytes returns the size of cpu0's highest-level cache, 0 when sysfs
// does not say.
func llcBytes() int {
	best, bestLevel := 0, 0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, _ := strconv.Atoi(firstLine(filepath.Join(d, "level")))
		size := firstLine(filepath.Join(d, "size"))
		mult := 1
		switch {
		case strings.HasSuffix(size, "K"):
			mult, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			mult, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		if n, err := strconv.Atoi(size); err == nil && level > bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

// gitCommit reads HEAD of the checkout the benchmark runs in. The
// driver's checkout is not a git repository; the commit is then
// "unknown".
func gitCommit() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached HEAD, or "unknown"
	}
	if sha := firstLine(filepath.Join(".git", ref)); sha != "unknown" {
		return sha
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// coreGauge times a fixed loop of byte copies with a running checksum,
// in milliseconds: a reading of how fast the core is for ordinary,
// instruction-dense code at this moment. On the calibration host, a
// 2-vCPU virtual machine, it reads 0.23 ms while the core's other
// hardware thread is idle and 0.3 to 0.7 ms while a neighbour uses it,
// for seconds to minutes at a time and with no steal time reported; a
// dependent multiply chain barely notices (2.9 against 3.8 ms), which is
// why it is not the gauge. A run's record carries one reading per epoch,
// so that a reader can tell a quiet host from a busy one. The figures
// themselves do not use it.
func coreGauge() float64 {
	t := time.Now()
	var sum uint64
	for r := 0; r < 8; r++ {
		for i, b := range gaugeSrc {
			gaugeDst[i] = b + byte(r)
			sum += uint64(b) ^ uint64(i)
		}
	}
	gaugeSink.Add(sum)
	return time.Since(t).Seconds() * 1e3
}

var (
	gaugeSrc, gaugeDst = make([]byte, 64<<10), make([]byte, 64<<10)
	gaugeSink          atomic.Uint64
)
