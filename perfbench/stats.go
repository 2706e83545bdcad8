package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB returns the process's peak resident set size in MB (10^6
// bytes). Linux reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// cpuSeconds returns the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAllocs returns the bytes the program has allocated on the heap so
// far.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// gcCPUSeconds returns the runtime's estimate of the CPU time spent in the
// garbage collector so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// ranShare returns the share of the CPU time the process asked for that
// it got: cpu is the CPU time the process used over an interval and steal
// the CPU time the hypervisor took from the machine meanwhile. The
// hypervisor takes time only from a CPU with work to run, so cpu+steal is
// what the process asked for, and a wall time times ranShare is that
// wall time with the steal taken out. Steal is counted in 10 ms ticks, so
// the share is exact only over intervals much longer than that.
func ranShare(cpu, steal float64) float64 {
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}

// hostSteal returns the CPU seconds the hypervisor has taken from this
// machine's CPUs so far (the steal column of /proc/stat), or -1 where that
// is not available. Stolen time slows every host-time metric, so runs
// report it to explain their spread.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return -1
	}
	var jiffies float64
	if _, err := fmt.Sscan(string(f[8]), &jiffies); err != nil {
		return -1
	}
	return jiffies / 100 // USER_HZ
}
