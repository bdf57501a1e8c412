package main

import (
	"math"
	"math/rand"
	"sort"

	"mir"
)

// boundaryTol is the score-unit distance from every top-k entry boundary
// a sample point must keep before its membership is checked: closer
// points sit within floating-point noise of a cell face.
const boundaryTol = 1e-6

// oracle recounts coverage by brute force: each user's threshold is the
// score of their k-th best product, found by scoring every product.
type oracle struct {
	weights    [][]float64
	thresholds []float64
}

func newOracle(products [][]float64, users []mir.User) *oracle {
	o := &oracle{weights: make([][]float64, len(users)), thresholds: make([]float64, len(users))}
	for i, u := range users {
		o.weights[i] = u.Weights
		o.thresholds[i] = kthScore(u, products)
	}
	return o
}

// kthScore returns the user's k-th largest product score, keeping the k
// best scores seen so far in descending order.
func kthScore(u mir.User, products [][]float64) float64 {
	best := make([]float64, 0, u.K)
	for _, p := range products {
		s := dot(u.Weights, p)
		if len(best) == u.K && s <= best[u.K-1] {
			continue
		}
		i := sort.Search(len(best), func(j int) bool { return best[j] < s })
		if len(best) < u.K {
			best = append(best, 0)
		}
		copy(best[i+1:], best[i:])
		best[i] = s
	}
	return best[u.K-1]
}

// coverage counts users whose threshold the point reaches, and returns
// the smallest distance of the point's score from any user's threshold.
func (o *oracle) coverage(p []float64) (n int, gap float64) {
	gap = math.Inf(1)
	for i, w := range o.weights {
		g := dot(w, p) - o.thresholds[i]
		if g >= 0 {
			n++
		}
		gap = math.Min(gap, math.Abs(g))
	}
	return n, gap
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// uniformPoints draws n points uniformly from the unit cube of dimension d.
func uniformPoints(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// samplePoints draws n check points: half uniform in the unit cube, half
// uniform in the bounding boxes of randomly chosen region cells, so both
// sides of the region boundary are exercised even when the region is a
// small corner of the cube.
func samplePoints(rng *rand.Rand, reg *mir.Region, n int) [][]float64 {
	cells := reg.Cells()
	pts := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		p := make([]float64, reg.Dim())
		lo, hi := []float64(nil), []float64(nil)
		if i%2 == 1 && len(cells) > 0 {
			lo, hi = cells[rng.Intn(len(cells))].BoundingBox()
		}
		for j := range p {
			if lo == nil {
				p[j] = rng.Float64()
			} else {
				p[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
		}
		pts = append(pts, p)
	}
	return pts
}
