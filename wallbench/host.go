package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is printed with every result: the host is shared and noisy, so
// a figure means little without the machine and its load at the start.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	LoadAvg    string `json:"loadavg"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     os.Getenv("WALLBENCH_COMMIT"),
		LoadAvg:    "unknown",
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return h
}

// resetPeakRSS restarts the process's VmHWM at its current RSS. Where the
// kernel does not allow it, peakRSS keeps reporting the peak since start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's VmHWM in bytes (0 where /proc is unavailable).
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

// addMemDelta records the Go allocator's work over one job.
func addMemDelta(m map[string]float64, before, after *runtime.MemStats, kvs int64) {
	m["mem.allocs_per_kv"] = ratio(float64(after.Mallocs-before.Mallocs), float64(kvs))
	m["mem.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / mib
	m["mem.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["mem.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
}

// timing is one measured interval. On a virtual machine the hypervisor can
// take the CPUs away ("steal"); on a shared host that varies by tens of
// percent from minute to minute and dominates run-to-run spread. steal is
// the stolen time per CPU over the interval, from /proc/stat.
type timing struct {
	wall, cpu, steal float64
}

// seconds is the interval's wall time less the time stolen from the
// machine's CPUs. It equals the wall time where nothing is stolen or
// /proc/stat is unavailable.
func (t timing) seconds() float64 {
	if s := t.wall - t.steal; s > 0 {
		return s
	}
	return t.wall
}

type stopwatch struct {
	t0          time.Time
	cpu0, steal float64
}

func startWatch() stopwatch {
	return stopwatch{t0: time.Now(), cpu0: cpuSeconds(), steal: stolenPerCPU()}
}

func (s stopwatch) stop() timing {
	return timing{
		wall:  time.Since(s.t0).Seconds(),
		cpu:   cpuSeconds() - s.cpu0,
		steal: stolenPerCPU() - s.steal,
	}
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stolenPerCPU is the time the hypervisor has stolen from this machine
// since boot, averaged over its CPUs: the steal column of /proc/stat's
// "cpu" line (in USER_HZ ticks, 100 per second on Linux) divided by the
// number of "cpuN" lines.
func stolenPerCPU() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total float64
	ncpu := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			total, _ = strconv.ParseFloat(f[8], 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			ncpu++
		}
	}
	if ncpu == 0 {
		return 0
	}
	return total / 100 / float64(ncpu)
}
