package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a percentile resting on fewer is one sample's noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, and whether at least minBeyond samples lie beyond it. xs is not
// modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return s[rank-1], n-rank >= minBeyond
}

// minSamples is the smallest sample count whose p-th percentile has
// minBeyond samples beyond it.
func minSamples(p float64) int {
	n := minBeyond + 1
	for {
		if _, ok := percentile(make([]float64, n), p); ok {
			return n
		}
		n++
	}
}

// median is the nearest-rank median, used for set-up repetitions and
// per-layer figures, where no tail is claimed.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// geomean is the geometric mean of positive xs: each x weighs the same
// whatever its size, so a slowdown of the cheap ones is not lost inside
// the noise of the dearest.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// Runtime counters read outside the timed calls.
const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
	gcCycleMetric  = "/gc/cycles/total:gc-cycles"
)

// readCounter reads one uint64 runtime metric.
func readCounter(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap after each GC cycle the program ran,
// at sample points outside the timed calls; cycles the benchmark forces
// itself are skipped. Its peak is the 90th percentile of those post-GC
// sizes: the high-water mark of the steady state, without the noise of
// whichever single cycle happened to land on the largest transient.
type heapPeak struct {
	lastCycle uint64
	live      []float64 // bytes, one per GC cycle seen
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: gcCycleMetric}, {Name: liveHeapMetric}}
	metrics.Read(s)
	if c := s[0].Value.Uint64(); c != h.lastCycle {
		h.lastCycle = c
		h.live = append(h.live, float64(s[1].Value.Uint64()))
	}
}

// gc forces a collection outside the timed calls, so the next timed
// call starts from the same heap state as every other; the forced cycle
// is not sampled.
func (h *heapPeak) gc() {
	runtime.GC()
	h.lastCycle = readCounter(gcCycleMetric)
}

// reset forgets the samples taken so far (warm-up).
func (h *heapPeak) reset() { h.live = h.live[:0] }

func (h *heapPeak) mb() float64 {
	v, _ := percentile(h.live, 90)
	return v / (1 << 20)
}
