package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile before it is
// reported: p90 needs at least 100 samples, p50 at least 20.
const tailSamples = 10

// minSamples is the sample floor of every timed loop, so that p90 is always
// reportable (see reportable).
const minSamples = 100

// reportable reports whether the p-quantile (0 < p < 1) of n samples has at
// least tailSamples samples beyond it.
func reportable(n int, p float64) bool {
	return float64(n)*(1-p) >= tailSamples-1e-9
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks, and false when the percentile rule forbids reporting it.
// xs is sorted in place.
func quantile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || !reportable(len(xs), p) {
		return 0, false
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo)), true
}

// median is the 0.5 quantile without the tail rule, for small per-run
// repetition counts such as repeated set-ups.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// maxOf is the largest of xs, or 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
