package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer samples is one outlier's value.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). It does not modify xs. The median of no samples
// is 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1):
// the smallest sample with at least a share p of the samples at or
// below it. beyond is the number of samples ranked above it, which the
// caller checks against minBeyond before calling the value a tail.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - 1 - rank
}

// samplesFor returns the fewest samples for which the p-quantile has at
// least minBeyond samples above it.
func samplesFor(p float64) int {
	n := 1
	for {
		if _, beyond := percentile(make([]float64, n), p); beyond >= minBeyond {
			return n
		}
		n++
	}
}

// metric is one reported figure: its value, unit and the number of
// samples it summarises (1 for exact counts).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	Note    string
	// lineOnly keeps the metric out of the JSON result.
	lineOnly bool
}

func (m metric) String() string {
	s := fmt.Sprintf("metric %-28s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.Samples)
	if m.Note != "" {
		s += "  (" + m.Note + ")"
	}
	return s
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sample is one timed operation: its wall time and the process's CPU
// time (every thread, user and system), in seconds, and the share of
// the machine's CPU time the hypervisor stole meanwhile.
type sample struct{ wall, cpu, steal float64 }

// stopwatch times one operation.
type stopwatch struct {
	wall  time.Time
	cpu   time.Duration
	steal stealClock
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime(), startSteal()} }

func (w stopwatch) stop() sample {
	cpu := cpuTime() - w.cpu
	return sample{wall: time.Since(w.wall).Seconds(), cpu: cpu.Seconds(), steal: w.steal.share()}
}

// walls and cpus pick one time out of each sample.
func walls(ss []sample) []float64 { return pick(ss, func(s sample) float64 { return s.wall }) }
func cpus(ss []sample) []float64  { return pick(ss, func(s sample) float64 { return s.cpu }) }

func pick(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// describeSteal summarises the steal the operations met, for the env
// lines.
func describeSteal(ss []sample) string {
	st := pick(ss, func(s sample) float64 { return s.steal })
	return fmt.Sprintf("median %.1f%%, max %.1f%% of the machine's CPU time over %d operations",
		100*median(st), 100*slices.Max(append([]float64{0}, st...)), len(ss))
}
