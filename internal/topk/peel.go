package topk

import (
	"math"
	"sort"

	"mir/internal/geom"
)

// This file implements the dominance filter behind both sort-filter
// passes of the package: the index's layer peel and Skyband. Each pass
// scans candidates in (attribute-sum descending, id ascending) order and
// asks, per candidate p, how many members kept so far dominate it. A
// plain member scan makes that O(|members|) per candidate; the filter
// files members into buckets on a coarse fixed grid and skips whole
// buckets that provably hold no dominator, so the answer is the same
// count — the order in which members are checked never changes how many
// of them dominate p — at a fraction of the Dominates calls.

// peelCells and peelAxes shape the filter grid: peelCells cells per axis
// on the first min(d, peelAxes) coordinates. Eight cells on three axes
// was the fastest setting measured on ANTI 20000x4; finer grids spend
// more on visiting empty buckets than they save in member checks.
// peelPrefix leading members of a round are checked directly before the
// grid (see dominators); 8 kept COR builds at the plain scan's speed and
// made IND builds faster than 0, 16, 32 or 64 did.
const (
	peelCells  = 8
	peelAxes   = 3
	peelPrefix = 8
)

// domFilter is the bucketed member set of one sort-filter round.
//
// Bucket pruning. A member q can only dominate p when q_i >= p_i - Eps in
// every coordinate (geom.Vector.Dominates rejects on q_i < p_i - Eps). The
// cell map is monotone in the coordinate, so a bucket whose cell on some
// grid axis lies below cell(p_i - Eps) holds no member with q_i >= p_i -
// Eps; and a bucket whose maximum has max_i < p_i - Eps holds none either.
// Rows with a non-finite coordinate never enter the grid: they share one
// bucket that every query scans, so neither the cell map (Go's int(±Inf)
// and int(NaN) are implementation-defined) nor a maximum that NaN would
// silently skip ever decides about them.
//
// Sum cutoff. Both passes historically stopped a candidate's member scan
// at the first member whose attribute sum fell below sum(p) - d·Eps. With
// finite sums that never fires: the candidates arrive in descending-sum
// order, so every member's sum is at least sum(p). A NaN sum, though,
// makes the sort comparator inconsistent, so finite rows can arrive out
// of order and the stop can fire, leaving later members unchecked. The
// filter keeps exactly that semantics — only members added before the
// first one below the floor count — through a running minimum of member
// sums, so the layers and bands stay the ones the plain scan produced on
// every input. On finite data the check is one comparison per candidate.
//
// Storage. Members live in one row-major matrix in member order; each
// bucket is a singly linked list through it (head, tail, next), so a
// bucket's members are visited in ascending member position and the
// whole filter is a handful of allocations sized once per pass.
type domFilter struct {
	d, axes int
	n       [peelAxes]int // cells per axis: peelCells on grid axes, 1 beyond
	lo      [peelAxes]float64
	scale   [peelAxes]float64

	// Per bucket — the grid buckets, then the non-finite bucket last:
	// first and last member (-1 when empty) and componentwise maximum.
	head, tail []int32
	max        []float64
	used       []int // buckets holding members, for reset

	rows []float64 // member rows, row-major in member order
	next []int32   // next member in the same bucket, -1 at the end
	// minSum[i] is the minimum non-NaN attribute sum of members 0..i
	// (+Inf while there is none).
	minSum []float64
}

// newDomFilter returns an empty filter for at most n d-dimensional
// members whose grid spans, on each grid axis, the finite range of
// row(0), ..., row(n-1). Any range is correct; one that hugs the members
// prunes best.
func newDomFilter(d, n int, row func(int) geom.Vector) *domFilter {
	f := &domFilter{d: d, axes: d}
	if f.axes > peelAxes {
		f.axes = peelAxes
	}
	nb := 1
	for a := 0; a < peelAxes; a++ {
		f.n[a] = 1
		if a >= f.axes {
			continue
		}
		f.n[a] = peelCells
		nb *= peelCells
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			if v := row(i)[a]; !math.IsInf(v, 0) && !math.IsNaN(v) {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		if hi > lo {
			f.lo[a] = lo
			f.scale[a] = peelCells / (hi - lo)
		}
	}
	nb++ // the non-finite bucket
	f.head = make([]int32, nb)
	f.tail = make([]int32, nb)
	for b := range f.head {
		f.head[b] = -1
	}
	f.max = make([]float64, nb*d)
	f.rows = make([]float64, 0, n*d)
	f.next = make([]int32, 0, n)
	f.minSum = make([]float64, 0, n)
	return f
}

// cell maps coordinate value x on grid axis a to its cell, clamped into
// [0, peelCells). The map is monotone non-decreasing over all of float64
// (NaN maps to cell 0), which is all bucket pruning needs: x >= y implies
// cell(x) >= cell(y).
func (f *domFilter) cell(a int, x float64) int {
	v := (x - f.lo[a]) * f.scale[a]
	if !(v > 0) {
		return 0
	}
	if v >= peelCells {
		return peelCells - 1
	}
	return int(v)
}

// bucketOf returns the bucket a member row is filed under.
func (f *domFilter) bucketOf(p geom.Vector) int {
	for _, v := range p {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return len(f.head) - 1
		}
	}
	var c [peelAxes]int
	for a := 0; a < f.axes; a++ {
		c[a] = f.cell(a, p[a])
	}
	return (c[0]*f.n[1]+c[1])*f.n[2] + c[2]
}

// reset empties the filter for the next round, keeping its grid.
func (f *domFilter) reset() {
	for _, b := range f.used {
		f.head[b] = -1
	}
	f.used = f.used[:0]
	f.rows, f.next, f.minSum = f.rows[:0], f.next[:0], f.minSum[:0]
}

// add appends p (with attribute sum sum) as the next member.
func (f *domFilter) add(p geom.Vector, sum float64) {
	pos := int32(len(f.minSum))
	m := math.Inf(1)
	if pos > 0 {
		m = f.minSum[pos-1]
	}
	if sum < m {
		m = sum
	}
	f.minSum = append(f.minSum, m)
	f.rows = append(f.rows, p...)
	f.next = append(f.next, -1)

	b := f.bucketOf(p)
	max := f.max[b*f.d : (b+1)*f.d]
	if f.head[b] < 0 {
		f.head[b] = pos
		copy(max, p)
		f.used = append(f.used, b)
	} else {
		f.next[f.tail[b]] = pos
		for i, v := range p {
			if v > max[i] {
				max[i] = v
			}
		}
	}
	f.tail[b] = pos
}

// cutoff returns how many leading members a candidate with attribute sum
// pSum is checked against: all of them, unless some member's sum lies
// below pSum - d·Eps, in which case the members before the first such one.
func (f *domFilter) cutoff(pSum float64) int {
	floor := pSum - float64(f.d)*geom.Eps
	n := len(f.minSum)
	if n == 0 || !(f.minSum[n-1] < floor) {
		return n
	}
	return sort.Search(n, func(i int) bool { return f.minSum[i] < floor })
}

// dominators counts the members within p's cutoff that dominate p,
// stopping as soon as the count reaches limit.
func (f *domFilter) dominators(p geom.Vector, pSum float64, limit int) int {
	cut := int32(f.cutoff(pSum))
	// A round's first members are its highest-sum rows, which dominate
	// most candidates of correlated data: they are checked directly, in
	// member order, and the buckets cover only the members after them.
	from := min(cut, peelPrefix)
	count := f.scanRange(p, 0, from, 0, limit)
	if count >= limit || from == cut {
		return count
	}
	nonFinite := len(f.head) - 1
	// Visit the candidate buckets the cheaper way: the list of occupied
	// buckets while it is short — as in the thin peel rounds of
	// correlated data — where each bucket's maximum alone rules it in or
	// out, or else p's orthant of the grid.
	if lo, orthant := f.orthant(p); len(f.used) < orthant {
		for _, b := range f.used {
			if b == nonFinite {
				continue
			}
			if count = f.scanIfLive(b, p, from, cut, count, limit); count >= limit {
				return count
			}
		}
	} else {
		for c0 := lo[0]; c0 < f.n[0]; c0++ {
			for c1 := lo[1]; c1 < f.n[1]; c1++ {
				for c2 := lo[2]; c2 < f.n[2]; c2++ {
					b := (c0*f.n[1]+c1)*f.n[2] + c2
					if count = f.scanIfLive(b, p, from, cut, count, limit); count >= limit {
						return count
					}
				}
			}
		}
	}
	return f.scan(nonFinite, p, from, cut, count, limit)
}

// scanRange adds to count the members at positions [from, to) that
// dominate p, stopping at limit.
func (f *domFilter) scanRange(p geom.Vector, from, to int32, count, limit int) int {
	d := int32(f.d)
	for j := from; j < to; j++ {
		if geom.Vector(f.rows[j*d : (j+1)*d]).Dominates(p) {
			if count++; count >= limit {
				break
			}
		}
	}
	return count
}

// orthant returns, per axis, the lowest cell that can hold a dominator of
// p, and the number of grid cells at or above those. A NaN threshold maps
// to cell 0 and so constrains nothing, just as Dominates never rejects on
// a NaN coordinate. While at most peelCells buckets are occupied the
// occupied list is walked whatever the orthant, so the cells are not
// computed and the orthant reports the whole grid.
func (f *domFilter) orthant(p geom.Vector) (lo [peelAxes]int, cells int) {
	if len(f.used) <= peelCells {
		return lo, len(f.head)
	}
	cells = 1
	for a := 0; a < peelAxes; a++ {
		if a < f.axes {
			lo[a] = f.cell(a, p[a]-geom.Eps)
		}
		cells *= f.n[a] - lo[a]
	}
	return lo, cells
}

// scanIfLive scans grid bucket b unless it is empty, holds no member in
// [from, cut), or its maximum rules every member out.
func (f *domFilter) scanIfLive(b int, p geom.Vector, from, cut int32, count, limit int) int {
	if h := f.head[b]; h < 0 || h >= cut || f.tail[b] < from || below(f.max[b*f.d:(b+1)*f.d], p) {
		return count
	}
	return f.scan(b, p, from, cut, count, limit)
}

// below reports whether max_i < p_i - Eps in some coordinate: then no row
// bounded by max can dominate p.
func below(max []float64, p geom.Vector) bool {
	for i, m := range max {
		if m < p[i]-geom.Eps {
			return true
		}
	}
	return false
}

// scan adds to count the members of bucket b at positions [from, cut)
// that dominate p, stopping at limit.
func (f *domFilter) scan(b int, p geom.Vector, from, cut int32, count, limit int) int {
	d := int32(f.d)
	for j := f.head[b]; j >= 0 && j < cut; j = f.next[j] {
		if j >= from && geom.Vector(f.rows[j*d:(j+1)*d]).Dominates(p) {
			if count++; count >= limit {
				break
			}
		}
	}
	return count
}
