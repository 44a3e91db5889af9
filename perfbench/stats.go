package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p95 needs at least 200 samples.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs and whether it may be
// reported: ok is false unless at least minBeyond samples lie above the
// rank it reads.
func tail(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return math.NaN(), false
	}
	return sorted(xs)[rank-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a share with its base, so a reader sees what it was taken of.
type ratio struct {
	num, base int
}

// Value is num/base; 0 for an empty base.
func (r ratio) Value() float64 {
	if r.base == 0 {
		return 0
	}
	return float64(r.num) / float64(r.base)
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%d/%d)", r.Value(), r.num, r.base)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
