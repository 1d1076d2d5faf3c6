package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified. It
// returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// drift compares the median of the first quarter of a sequence with the
// median of its last quarter: last/first - 1. A stationary workload reads
// near 0; a cost that grows with history reads positive.
func drift(seq []float64) float64 {
	q := len(seq) / 4
	if q == 0 {
		return 0
	}
	first, last := median(seq[:q]), median(seq[len(seq)-q:])
	if first == 0 {
		return 0
	}
	return last/first - 1
}

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// report uses.
type runtimeSample struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = ms[2].Value.Float64Histogram()
	}
	return s
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     []float64 // GC pause durations in µs, bucket midpoints
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{gcCycles: b.gcCycles - a.gcCycles, allocBytes: b.allocBytes - a.allocBytes}
	if a.pauses == nil || b.pauses == nil {
		return d
	}
	for i, n := range b.pauses.Counts {
		n -= a.pauses.Counts[i]
		lo, hi := b.pauses.Buckets[i], b.pauses.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		for ; n > 0; n-- {
			d.pauses = append(d.pauses, (lo+hi)/2*1e6)
		}
	}
	return d
}

// liveHeapBytes collects garbage and returns the heap still reachable.
func liveHeapBytes() uint64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	if ms[0].Value.Kind() != metrics.KindUint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	return ms[0].Value.Uint64()
}

// cpuTime returns the CPU time the process has used, user plus system.
// Time the hypervisor steals from the host's virtual CPUs is not charged
// to it, so per-op CPU time holds steady where wall-clock figures swing
// with the neighbours' load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
