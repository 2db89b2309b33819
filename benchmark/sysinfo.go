package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// procField returns the first value of a "Key:  value ..." line of a
// /proc text file, "" when the file or key is missing (non-Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). It
// falls back to the Go runtime's Sys where /proc is unavailable, so
// the metric is never 0.
func peakRSSMB() float64 {
	if f := strings.Fields(procField("/proc/self/status", "VmHWM")); len(f) >= 1 {
		if kb, err := strconv.ParseFloat(f[0], 64); err == nil && kb > 0 {
			return kb / 1024
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// gitSHA names the commit measured; "unknown" outside a git checkout
// (the driver's checkouts are not repositories).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procs is the GOMAXPROCS every workload runs at: all processors up
// to four, so the serving path is measured at more than one core
// without the result depending on how large the box is.
func procs() int { return min(runtime.NumCPU(), 4) }

// memDelta reports allocation and GC activity between two MemStats
// readings.
func memDelta(m measured, before, after *runtime.MemStats) {
	m["mem.total_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["mem.num_gc"] = float64(after.NumGC - before.NumGC)
	m["mem.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}
