package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailWindows is how many consecutive windows tailP99 splits a run's
// latencies into.
const tailWindows = 5

// tailP99 is the p99 of a run's latencies, in time order, taken robustly:
// the nearest-rank p99 of each of tailWindows consecutive windows, and
// the median of those. A host stall of a few seconds, which on a shared
// VM moves a run-wide p99 of a few hundred samples by half, then shifts
// one window, not the result. The note gives the sample counts.
func tailP99(lat []float64) (float64, string) {
	k := min(tailWindows, len(lat))
	if k == 0 {
		return 0, "no samples"
	}
	var p []float64
	for i := 0; i < k; i++ {
		p = append(p, percentile(lat[i*len(lat)/k:(i+1)*len(lat)/k], 99))
	}
	per := len(lat) / k
	return median(p), fmt.Sprintf("median over %d windows of each window's p99 (%d samples in all, about %d per window, %d beyond each p99)",
		k, len(lat), per, per-int(math.Ceil(0.99*float64(per))))
}

// median is the middle value of xs (mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles describes a sample's spread for the notes.
func quartiles(xs []float64) string {
	return fmt.Sprintf("quartiles %.4g/%.4g/%.4g, min %.4g, max %.4g",
		percentile(xs, 25), percentile(xs, 50), percentile(xs, 75), slices.Min(xs), slices.Max(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statusKB reads one "<key>: <n> kB" line of /proc/<pid>/status; pid
// "self" reads this process.
func statusKB(pid, key string) (float64, bool) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0, false
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		return v, err == nil
	}
	return 0, false
}

// peakMB is the VmHWM (peak resident set) of a process in MB.
func peakMB(pid string) float64 {
	kb, _ := statusKB(pid, "VmHWM")
	return kb / 1024
}

// resetPeak restarts this process's VmHWM from its current resident set
// (Linux clear_refs 5), so the peak covers only what runs afterwards.
// Where the kernel refuses, the peak keeps covering the whole process
// and the error says so.
func resetPeak() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeSample holds the runtime counters the traced run reads as
// deltas.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

// readRuntime reads the heap bytes allocated so far (MemStats, exact),
// the GC's CPU time (runtime/metrics) and the process's CPU time.
func readRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{allocBytes: float64(m.TotalAlloc), gcCPU: gc[0].Value.Float64(), totalCPU: cpu.Seconds()}
}
