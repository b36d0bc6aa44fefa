package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a snapshot of the process-wide counters a phase is measured by.
type usage struct {
	at         time.Time
	cpu        time.Duration // user plus system CPU
	allocs     uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	mutexWait  float64 // seconds
	gcCycles   uint64
}

var usageNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/cycles/total:gc-cycles",
}

func readUsage() usage {
	samples := make([]metrics.Sample, len(usageNames))
	for i, n := range usageNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		gcCPU:      samples[2].Value.Float64(),
		mutexWait:  samples[3].Value.Float64(),
		gcCycles:   samples[4].Value.Uint64(),
	}
}

// gcCycles returns how many collection cycles have finished.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap forces two collections — the second empties the sync.Pool
// victim caches the first one kept alive — and returns the bytes of live
// heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// percentile returns the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quartiles returns the first, second and third quartile of the values the
// way Python's statistics.quantiles(values, n=4) does (its default
// "exclusive" method), which the spread of repeated runs is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value (the mean of the middle two for an even
// count).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
