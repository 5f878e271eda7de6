package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples a reported tail must leave above it: a
// percentile resting on fewer outliers than this is noise, not a tail.
const minBeyond = 10

// Tail is one reported percentile and the evidence behind it.
type Tail struct {
	Value  float64 `json:"value"`
	Pct    float64 `json:"pct"`    // percentile actually reported
	N      int     `json:"n"`      // samples
	Beyond int     `json:"beyond"` // samples strictly above the reported rank
}

// percentile returns the nearest-rank p-th percentile of sorted (0 for an
// empty sample).
func percentile(sorted []float64, p float64) Tail {
	n := len(sorted)
	if n == 0 {
		return Tail{}
	}
	rank := max(int(math.Ceil(p/100*float64(n))), 1)
	return Tail{Value: sorted[rank-1], Pct: 100 * float64(rank) / float64(n), N: n, Beyond: n - rank}
}

// tailOf returns the nearest-rank p-th percentile of sorted, capped at the
// highest percentile that leaves at least minBeyond samples beyond it. With
// minBeyond samples or fewer no percentile qualifies and the maximum is
// reported with Beyond == 0. An empty sample yields the zero Tail.
func tailOf(sorted []float64, p float64) Tail {
	t := percentile(sorted, p)
	if t.N == 0 || t.Beyond >= minBeyond {
		return t
	}
	rank := t.N - minBeyond
	if rank < 1 {
		rank = t.N
	}
	return Tail{Value: sorted[rank-1], Pct: 100 * float64(rank) / float64(t.N), N: t.N, Beyond: t.N - rank}
}

// median returns the middle of xs (mean of the two middles for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Sample is one timed operation: when it was due (offset from the start of
// the measured window) and how long it took from then to completion.
type Sample struct {
	Due     time.Duration
	Latency time.Duration
}

// Class names the three latency classes the end-to-end metrics report.
type Class string

const (
	ClassWrite   Class = "write"
	ClassRead    Class = "read"
	ClassDeliver Class = "deliver"
)

var classes = []Class{ClassWrite, ClassRead, ClassDeliver}

// maxTailSlices bounds how many equal slices of the measured window a
// percentile is computed in. A reported percentile is the median of the
// slices' percentiles, so one rare stall — a WAL snapshot, a burst of CPU
// steal on the host — moves one slice and not the figure. A class gets as
// many slices as still leave minBeyond samples beyond the percentile in
// each, so every slice's tail is the named percentile; the pooled
// percentiles are reported beside them.
const maxTailSlices = 8

// ClassStats summarizes one class for the report.
type ClassStats struct {
	// P50, P95 and P99 are medians over slices of the window (see
	// maxTailSlices); N, Pct and Beyond describe the median slice, and
	// the Slices fields say how many there were.
	P50       Tail `json:"p50"`
	P95       Tail `json:"p95"`
	P99       Tail `json:"p99"`
	P50Slices int  `json:"p50_slices"`
	P95Slices int  `json:"p95_slices"`
	P99Slices int  `json:"p99_slices"`
	PooledP50 Tail `json:"pooled_p50"`
	PooledP95 Tail `json:"pooled_p95"`
	PooledP99 Tail `json:"pooled_p99"`
	// FirstHalfP50 and SecondHalfP50 split the samples at the midpoint of
	// the measured window by due time: state that accumulates during a run
	// (ads, WAL segments) shows as drift between them.
	FirstHalfP50  float64 `json:"first_half_p50_ms"`
	SecondHalfP50 float64 `json:"second_half_p50_ms"`
}

// summarize computes the class statistics of samples measured over a
// window of the given length, in milliseconds.
func summarize(samples []Sample, window time.Duration) ClassStats {
	all := make([]float64, 0, len(samples))
	var first, second []float64
	for _, s := range samples {
		v := ms(s.Latency)
		all = append(all, v)
		if s.Due < window/2 {
			first = append(first, v)
		} else {
			second = append(second, v)
		}
	}
	sort.Float64s(all)
	cs := ClassStats{
		PooledP50:     percentile(all, 50),
		PooledP95:     tailOf(all, 95),
		PooledP99:     tailOf(all, 99),
		FirstHalfP50:  median(first),
		SecondHalfP50: median(second),
	}
	cs.P50, cs.P50Slices = sliced(samples, window, 50, percentile)
	cs.P95, cs.P95Slices = sliced(samples, window, 95, tailOf)
	cs.P99, cs.P99Slices = sliced(samples, window, 99, tailOf)
	return cs
}

// tailSlices returns how many slices n samples support for the p-th tail.
func tailSlices(n int, p float64) int {
	k := int(float64(n) * (100 - p) / 100 / minBeyond)
	return min(max(k, 1), maxTailSlices)
}

// sliced splits samples into equal slices of the window by due time and
// returns the median of the slices' p-th percentiles, as stat computes them,
// and the slice count.
func sliced(samples []Sample, window time.Duration, p float64, stat func([]float64, float64) Tail) (Tail, int) {
	k := tailSlices(len(samples), p)
	slices := make([][]float64, k)
	for _, s := range samples {
		i := min(max(int(int64(s.Due)*int64(k)/int64(window)), 0), k-1)
		slices[i] = append(slices[i], ms(s.Latency))
	}
	var tails []Tail
	for _, sl := range slices {
		if len(sl) > 0 {
			sort.Float64s(sl)
			tails = append(tails, stat(sl, p))
		}
	}
	return medianTail(tails), k
}

// medianTail returns the median of tails by value. For an even count the
// value is the mean of the two middle tails and the evidence fields are the
// lower one's.
func medianTail(tails []Tail) Tail {
	if len(tails) == 0 {
		return Tail{}
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].Value < tails[j].Value })
	m := len(tails) / 2
	if len(tails)%2 == 1 {
		return tails[m]
	}
	t := tails[m-1]
	t.Value = (tails[m-1].Value + tails[m].Value) / 2
	return t
}
