package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile is the nearest-rank percentile of v (p in 0..100); v need not
// be sorted. It returns NaN for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 { return percentile(v, 50) }

// beyond counts the samples strictly after the nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtSample reads the Go runtime counters the benchmark reports, and the
// CPU time the operating system charged the process.
type rtSample struct {
	procCPU    float64 // user + system seconds
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return rtSample{
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// liveHeapBytes forces a collection and returns the heap still in use. The
// second cycle frees what waited on a finalizer in the first, such as the
// files and sockets of a closed deployment.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
