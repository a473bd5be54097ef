package main

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true},
		{99, 0.9, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
		xs := make([]float64, c.n)
		if _, ok := quantile(xs, c.p); ok != c.want {
			t.Errorf("quantile over %d samples at %v reported %v, want %v", c.n, c.p, ok, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending: quantile must sort
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}} {
		got, ok := quantile(xs, c.p)
		if !ok || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, %v; want %v", c.p, got, ok, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseHWM(t *testing.T) {
	status := []byte("Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  283136 kB\nVmRSS:\t  120000 kB\n")
	got, err := parseHWM(status)
	if err != nil || got != 276.5 {
		t.Fatalf("parseHWM = %v, %v; want 276.5 MB", got, err)
	}
	if _, err := parseHWM([]byte("VmRSS:\t1 kB\n")); err == nil {
		t.Fatal("parseHWM accepted a status without VmHWM")
	}
}
