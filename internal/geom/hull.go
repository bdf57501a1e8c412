package geom

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"mir/internal/lp"
)

// ExtremePoints returns the indices of the points of pts that are vertices
// of the convex hull conv(pts), in arbitrary dimension.
//
// The result V satisfies conv(V) = conv(pts), which is the property Lemmas
// 3 and 4 of the paper require. Borderline points (on a hull facet) may be
// conservatively included; that enlarges V without breaking conv(V) =
// conv(pts).
//
// Dimensions 1 and 2 use direct methods (min/max scan, Andrew's monotone
// chain); higher dimensions use small linear programs ("is pts[i] a convex
// combination of these points?") against a filtered candidate set (see
// extremeCandidates), replacing the qhull dependency of the original
// implementation.
func ExtremePoints(pts []Vector) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if n <= 2 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	switch len(pts[0]) {
	case 1:
		return extreme1D(pts)
	case 2:
		return extreme2D(pts)
	default:
		return extremeCandidates(pts)
	}
}

// extreme1D returns the argmin and argmax of one-dimensional points.
func extreme1D(pts []Vector) []int {
	lo, hi := 0, 0
	for i, p := range pts {
		if p[0] < pts[lo][0] {
			lo = i
		}
		if p[0] > pts[hi][0] {
			hi = i
		}
	}
	if lo == hi {
		return []int{lo}
	}
	return []int{lo, hi}
}

// hull2DScratch holds the reusable working state of extreme2D; the sort
// runs through the sort.Interface implementation so no per-call closures
// escape. Only the returned vertex list is freshly allocated (callers cache
// it).
type hull2DScratch struct {
	pts          []Vector
	order        []int
	lower, upper []int
	seen         []bool
}

func (s *hull2DScratch) Len() int      { return len(s.order) }
func (s *hull2DScratch) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *hull2DScratch) Less(a, b int) bool {
	pa, pb := s.pts[s.order[a]], s.pts[s.order[b]]
	if pa[0] != pb[0] {
		return pa[0] < pb[0]
	}
	return pa[1] < pb[1]
}

var hull2DPool = sync.Pool{New: func() any { return new(hull2DScratch) }}

func cross2D(o, a, b Vector) float64 {
	return (a[0]-o[0])*(b[1]-o[1]) - (a[1]-o[1])*(b[0]-o[0])
}

// chain2D appends the monotone-chain hull of s.pts over s.order (walked
// forward or backward) into hull and returns it.
func chain2D(pts []Vector, order []int, backward bool, hull []int) []int {
	for k := range order {
		i := order[k]
		if backward {
			i = order[len(order)-1-k]
		}
		for len(hull) >= 2 &&
			cross2D(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[i]) < -Eps {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, i)
	}
	return hull
}

// extreme2D runs Andrew's monotone chain. Collinear boundary points are
// retained (safe over-approximation of the vertex set).
func extreme2D(pts []Vector) []int {
	n := len(pts)
	s := hull2DPool.Get().(*hull2DScratch)
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.seen = make([]bool, n)
	}
	s.order = s.order[:n]
	s.seen = s.seen[:n]
	for i := range s.order {
		s.order[i] = i
		s.seen[i] = false
	}
	s.pts = pts
	sort.Sort(s)
	s.lower = chain2D(pts, s.order, false, s.lower[:0])
	s.upper = chain2D(pts, s.order, true, s.upper[:0])
	var out []int
	for _, i := range s.lower {
		if !s.seen[i] {
			s.seen[i] = true
			out = append(out, i)
		}
	}
	for _, i := range s.upper {
		if !s.seen[i] {
			s.seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	s.pts = nil
	hull2DPool.Put(s)
	return out
}

// extremeScratch holds the reusable working state of extremeCandidates.
// Only the returned vertex list is freshly allocated (callers cache it).
type extremeScratch struct {
	pts   []Vector
	order []int     // dedup order, then the filter's visiting order
	keep  []int     // deduplicated point indices, ascending
	key   []float64 // per point: squared distance from the seed centroid
	inE   []bool    // per point: member of the candidate set
	cand  []int     // candidate set E, as point indices
	cpts  []Vector  // E's points, parallel to cand
	rest  []Vector  // E minus one point, for the verify LPs
	ctr   []float64 // centroid of the seed candidates
	dir   []int8    // seed direction, one of -1/0/+1 per coordinate
}

var extremePool = sync.Pool{New: func() any { return new(extremeScratch) }}

// canonBits is the bit pattern used to compare coordinates for exact
// duplicates: equal values compare equal (both zeros map to +0) and NaN
// payloads compare by their bits, so the order is total and deterministic.
func canonBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// cmpRows orders points by their coordinates' canonical bits; exact
// duplicates compare equal.
func cmpRows(a, b Vector) int {
	for t := range a {
		if c := cmp.Compare(canonBits(a[t]), canonBits(b[t])); c != 0 {
			return c
		}
	}
	return 0
}

// dedup fills s.keep with the lowest index of every distinct point.
func (s *extremeScratch) dedup() {
	n := len(s.pts)
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	s.order = s.order[:n]
	for i := range s.order {
		s.order[i] = i
	}
	// Duplicates end up adjacent, the lowest index first.
	slices.SortFunc(s.order, func(a, b int) int {
		return cmp.Or(cmpRows(s.pts[a], s.pts[b]), cmp.Compare(a, b))
	})
	s.keep = s.keep[:0]
	for k, i := range s.order {
		if k == 0 || cmpRows(s.pts[s.order[k-1]], s.pts[i]) != 0 {
			s.keep = append(s.keep, i)
		}
	}
	sort.Ints(s.keep)
}

// addCandidate puts point i into E unless it is already there.
func (s *extremeScratch) addCandidate(i int) {
	if !s.inE[i] {
		s.inE[i] = true
		s.cand = append(s.cand, i)
		s.cpts = append(s.cpts, s.pts[i])
	}
}

// seed adds to E the maximizer of every direction in {-1,0,1}^D \ {0}
// for D <= 4, and of the 2D signed axes beyond.
func (s *extremeScratch) seed(dim int) {
	if cap(s.dir) < dim {
		s.dir = make([]int8, dim)
	}
	s.dir = s.dir[:dim]
	clear(s.dir)
	if dim > 4 {
		for t := range s.dir {
			for _, sign := range [2]int8{1, -1} {
				s.dir[t] = sign
				s.addCandidate(s.argmax())
			}
			s.dir[t] = 0
		}
		return
	}
	dirs := 1
	for range dim {
		dirs *= 3
	}
	for code := 0; code < dirs; code++ {
		zero := true
		for t, c := 0, code; t < dim; t, c = t+1, c/3 {
			s.dir[t] = int8(c%3) - 1
			zero = zero && s.dir[t] == 0
		}
		if !zero {
			s.addCandidate(s.argmax())
		}
	}
}

// argmax returns the kept point with the largest dot product with s.dir,
// ties toward the lowest index. A NaN product ranks below every number.
func (s *extremeScratch) argmax() int {
	best, bestDot := -1, 0.0
	for _, i := range s.keep {
		var dot float64
		for t, c := range s.dir {
			switch c {
			case 1:
				dot += s.pts[i][t]
			case -1:
				dot -= s.pts[i][t]
			}
		}
		if math.IsNaN(dot) {
			dot = math.Inf(-1)
		}
		if best < 0 || dot > bestDot {
			best, bestDot = i, dot
		}
	}
	return best
}

// extremeCandidates returns the hull vertices of pts (dimension >= 3)
// output-sensitively, after Clarkson's extreme-point method: every point
// is tested against a small candidate set E instead of all other points.
//
//  1. Exact duplicates are dropped, keeping the lowest index, so a vertex
//     entered twice is not rejected as a combination of its own copy.
//  2. E is seeded with the maximizer of each direction in {-1,0,1}^D
//     (D <= 4; the signed axes beyond), ties toward the lowest index.
//  3. The other points are visited by decreasing squared distance from
//     the seeds' centroid (ties by index); a point inside conv(E) is
//     skipped, any other joins E.
//  4. A member p of E is a vertex exactly when it is not in conv(E \ {p}).
//
// Every vertex survives step 3: E only ever holds input points other than
// the visited one, so a point in conv(E) is in the hull of the others and
// is no vertex. Every non-vertex fails step 4, because E then holds every
// vertex and conv(E \ {p}) = conv(pts). Both tests are InConvexHull with
// its hullTol, so the result equals the all-pairs test on the
// deduplicated points, except that a borderline point within hullTol of
// the others' hull, which the all-pairs test drops, may be kept when the
// points that put it there were filtered out of E.
func extremeCandidates(pts []Vector) []int {
	n, dim := len(pts), len(pts[0])
	s := extremePool.Get().(*extremeScratch)
	s.pts = pts
	s.dedup()
	// One LP scratch serves every test of the call. The filter's programs
	// gain a column per added candidate, so size it for the largest up
	// front rather than regrowing it at each size.
	fs := getScratch(false)
	defer feaserPool.Put(fs)
	rows := 2 * (dim + 1)
	fs.w.Reserve(rows, len(s.keep))
	if cap(fs.aFlat) < rows*len(s.keep) {
		fs.aFlat = make([]float64, 0, rows*len(s.keep))
	}
	if cap(s.inE) < n {
		s.inE = make([]bool, n)
		s.key = make([]float64, n)
	}
	s.inE, s.key = s.inE[:n], s.key[:n]
	clear(s.inE)
	s.cand, s.cpts = s.cand[:0], s.cpts[:0]
	s.seed(dim)

	growFloat(&s.ctr, dim)
	clear(s.ctr)
	for _, p := range s.cpts {
		for t := range s.ctr {
			s.ctr[t] += p[t]
		}
	}
	for t := range s.ctr {
		s.ctr[t] /= float64(len(s.cpts))
	}
	s.order = s.order[:0]
	for _, i := range s.keep {
		if s.inE[i] {
			continue
		}
		var d2 float64
		for t, c := range s.ctr {
			diff := pts[i][t] - c
			d2 += diff * diff
		}
		if math.IsNaN(d2) {
			d2 = math.Inf(1) // visited first, deterministically
		}
		s.key[i] = d2
		s.order = append(s.order, i)
	}
	slices.SortFunc(s.order, func(a, b int) int {
		if c := cmp.Compare(s.key[b], s.key[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, i := range s.order {
		if !fs.inConvexHull(pts[i], s.cpts) {
			s.addCandidate(i)
		}
	}

	var out []int
	for k, i := range s.cand {
		s.rest = append(append(s.rest[:0], s.cpts[:k]...), s.cpts[k+1:]...)
		if !fs.inConvexHull(pts[i], s.rest) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		// Every candidate lies within hullTol of the others (all points
		// coincide up to the tolerance); keep one representative.
		out = append(out, 0)
	}
	sort.Ints(out)
	clear(s.cpts)
	clear(s.rest[:cap(s.rest)])
	s.pts = nil
	extremePool.Put(s)
	return out
}

// InConvexHull reports whether q is a convex combination of pts. It solves
// the feasibility program: alpha >= 0, sum(alpha) = 1, sum(alpha_j pts_j) =
// q. Exact equalities are used, so borderline points round toward "not in
// hull" — the safe direction for vertex-set computations.
//
// The program is assembled into a pooled flat scratch and solved on the
// scratch's reusable workspace: this is AA's inner-group hot path and runs
// allocation-free in steady state.
func InConvexHull(q Vector, pts []Vector) bool {
	return InConvexHullCounted(q, pts, nil, false)
}

// InConvexHullCounted is InConvexHull with LP effort accounting: the
// underlying workspace's pivot and solve counters are accumulated into ctr
// when it is non-nil. The solve path is identical, on the historical
// scalar pivot loops when scalarLP is set (lp's DisableKernels path) —
// bit-identical either way.
func InConvexHullCounted(q Vector, pts []Vector, ctr *lp.Counters, scalarLP bool) bool {
	if len(pts) == 0 {
		return false
	}
	s := getScratch(scalarLP)
	defer feaserPool.Put(s)
	if ctr != nil {
		w0 := s.w.Counters
		defer func() { ctr.Add(s.w.Counters.Sub(w0)) }()
	}
	return s.inConvexHull(q, pts)
}

// inConvexHull solves InConvexHull's program on the scratch s.
func (s *feaserScratch) inConvexHull(q Vector, pts []Vector) bool {
	n, dim := len(pts), len(q)
	if n == 0 {
		return false
	}
	// 2*(dim+1) inequality rows encode the dim+1 equalities, in the same
	// row order as the original implementation (pos/neg pairs per
	// coordinate, then the two convexity rows).
	rows := 2 * (dim + 1)
	A := growFloat(&s.aFlat, rows*n)
	b := growFloat(&s.bBuf, rows)
	for t := 0; t < dim; t++ {
		pos := A[(2*t)*n : (2*t+1)*n]
		neg := A[(2*t+1)*n : (2*t+2)*n]
		for j := 0; j < n; j++ {
			v := pts[j][t]
			pos[j] = v
			neg[j] = -v
		}
		b[2*t] = q[t] + hullTol
		b[2*t+1] = -q[t] + hullTol
	}
	ones := A[2*dim*n : (2*dim+1)*n]
	negOnes := A[(2*dim+1)*n : (2*dim+2)*n]
	for j := 0; j < n; j++ {
		ones[j] = 1
		negOnes[j] = -1
	}
	b[2*dim] = 1 + hullTol
	b[2*dim+1] = -1 + hullTol
	ok, _ := s.w.FeasibleFlat(n, A, b)
	return ok
}

// hullTol relaxes the convex-combination equalities by a hair so that
// points numerically identical to a hull member are recognized as inside.
const hullTol = 1e-9
