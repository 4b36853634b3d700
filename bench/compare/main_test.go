package main

import (
	"math"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_ops_s", Better: "higher", Bound: 0.07}
	share := metricSpec{Name: "loadgen.failed_share", Better: "lower", Abs: 0.001}
	for _, c := range []struct {
		name     string
		old, cur []float64
		ms       metricSpec
		want     string
	}{
		{"within the bound", []float64{100, 101, 99}, []float64{105, 106, 104}, lower, "unchanged"},
		{"slower by more than the bound", []float64{100, 101, 99}, []float64{112, 113, 111}, lower, "worse"},
		{"faster by more than the bound", []float64{100, 101, 99}, []float64{85, 86, 84}, lower, "better"},
		{"higher is better: a drop is worse", []float64{1000, 1001, 999}, []float64{900, 901, 899}, higher, "worse"},
		{"higher is better: a rise is better", []float64{1000, 1001, 999}, []float64{1100, 1101, 1099}, higher, "better"},
		{"old side noisier than the bound", []float64{80, 100, 120}, []float64{100, 100, 100}, lower, "unresolved"},
		{"new side noisier than the bound", []float64{100, 100, 100}, []float64{90, 112, 130}, lower, "unresolved"},
		{"one file a side has no spread", []float64{100}, []float64{111}, lower, "worse"},
		{"absolute bound: zero stays zero", []float64{0, 0, 0}, []float64{0, 0, 0}, share, "unchanged"},
		{"absolute bound: within it", []float64{0, 0, 0}, []float64{0.0005, 0.0005, 0.0005}, share, "unchanged"},
		{"absolute bound: beyond it", []float64{0, 0, 0}, []float64{0.002, 0.002, 0.002}, share, "worse"},
	} {
		if got := judge(c.old, c.cur, c.ms).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	v := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	if got := spread(v); math.Abs(got-27.5) > 1e-12 {
		t.Errorf("spread = %v, want 27.5", got)
	}
	// quantiles([10, 20, 30], n=4) is [10, 20, 30].
	if got := spread([]float64{30, 10, 20}); got != 20 {
		t.Errorf("spread of three = %v, want 20", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
