package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tailOf must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	if _, ok := tailOf(seq(10)); ok {
		t.Fatal("10 samples leave none with ten beyond it; want ok=false")
	}
	for _, tc := range []struct {
		n     int
		value float64
		label string
	}{
		{11, 1, "p9.09"},    // only the minimum has ten samples above it
		{100, 90, "p90"},    // samples 91..100 lie beyond
		{400, 390, "p97.5"}, // samples 391..400 lie beyond
		{2000, 1990, "p99.5"},
	} {
		got, ok := tailOf(seq(tc.n))
		if !ok || got.Value != tc.value || got.N != tc.n || got.Label() != tc.label {
			t.Errorf("n=%d: got %+v (%s) ok=%v, want value %g label %s", tc.n, got, got.Label(), ok, tc.value, tc.label)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}
