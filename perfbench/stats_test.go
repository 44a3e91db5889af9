package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

// A p95 needs ten samples beyond it: 200 samples give one, 199 do not.
func TestTailNeedsTenBeyond(t *testing.T) {
	if v, ok := tail(ramp(199), 0.95); ok {
		t.Errorf("p95 of 199 samples reported as %g", v)
	}
	v, ok := tail(ramp(200), 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %g, %v; want 190, true", v, ok)
	}
	if v, ok := tail(ramp(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10, true", v, ok)
	}
	if _, ok := tail(nil, 0.5); ok {
		t.Error("a percentile of nothing was reported")
	}
}

func TestFailRatio(t *testing.T) {
	r := ratio{3, 200}
	if r.Value() != 0.015 || r.String() != "0.0150 (3/200)" {
		t.Errorf("ratio{3, 200} = %g, %q", r.Value(), r.String())
	}
	if (ratio{0, 0}).Value() != 0 {
		t.Error("a ratio over an empty base is not 0")
	}
}
