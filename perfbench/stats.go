package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie strictly above a
// reported tail percentile.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
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

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail is the highest percentile of a sample set that still has
// tailBeyond samples above it.
type tail struct {
	Value      float64
	Percentile float64 // e.g. 97.5 for the 97.5th percentile
	N          int     // sample count
}

// Label names the percentile, e.g. "p97.5".
func (t tail) Label() string { return "p" + trimFloat(t.Percentile) }

// tailOf applies the tail rule: of n sorted samples, the value at
// nearest rank n-tailBeyond, which is the highest percentile with exactly
// tailBeyond samples beyond it. It reports ok=false when there are too few
// samples for any percentile to qualify.
func tailOf(xs []float64) (tail, bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{N: n}, false
	}
	s := sorted(xs)
	rank := n - tailBeyond // 1-based nearest rank
	return tail{
		Value:      s[rank-1],
		Percentile: 100 * float64(rank) / float64(n),
		N:          n,
	}, true
}

// trimFloat formats a percentile without trailing zeros.
func trimFloat(p float64) string {
	s := fmt.Sprintf("%.2f", p)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
