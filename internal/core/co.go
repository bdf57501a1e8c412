package core

import (
	"errors"
	"math"
	"sort"

	"mir/internal/celltree"
	"mir/internal/geom"
	"mir/internal/topk"
)

// ErrNoSolution is returned when no product position satisfies the
// problem's coverage requirement (e.g. the m-impact region is empty
// within the search box).
var ErrNoSolution = errors.New("core: no feasible product position")

// COResult is the outcome of an influence-based cost optimization.
type COResult struct {
	// Point is the cost-optimal position.
	Point geom.Vector
	// Cost is the creation (or upgrade) cost at Point.
	Cost float64
	// Coverage is the number of users Point covers.
	Coverage int
	// Region is the m-impact region computed along the way.
	Region *Region
}

// SolveCO solves the influence-based cost optimization problem (Yang et
// al. [67], generalized to k >= 1 as per Section 5.5): find the cheapest
// position for a new product that covers at least m users. It computes
// the m-impact region with AA and then minimizes the cost over the
// region's cells, processing cells in ascending order of a bounding-box
// cost lower bound and pruning those that cannot beat the incumbent.
func SolveCO(inst *Instance, m int, cost Cost, opts Options) (*COResult, error) {
	region, err := AA(inst, m, opts)
	if err != nil {
		return nil, err
	}
	point, c, err := minCostOverRegion(inst, region, cost, make(geom.Vector, inst.Dim))
	if err != nil {
		return nil, err
	}
	return &COResult{
		Point:    point,
		Cost:     c,
		Coverage: inst.CountCovering(point),
		Region:   region,
	}, nil
}

// SolveThresholdedIS solves the thresholded improvement-strategy problem
// (Section 5.5's second crossbreed): find the cheapest upgrade of product
// pIdx so that the upgraded product covers at least m users. Upgrades are
// monotone (p' dominates p), so the search is the m-impact region within
// the box [p, 1]^d, with top-k thresholds computed over the competitors
// P \ {p}.
func SolveThresholdedIS(products []geom.Vector, users []topk.UserPref, pIdx int, m int, cost Cost, opts Options) (*COResult, error) {
	sub, err := competitorInstance(products, users, pIdx)
	if err != nil {
		return nil, err
	}
	if err := sub.CheckM(m); err != nil {
		return nil, err
	}
	p := products[pIdx]
	box := upgradeBox(p)
	region, err := AAWithBox(sub, m, opts, box)
	if err != nil {
		return nil, err
	}
	point, c, err := minCostOverRegion(sub, region, cost, p)
	if err != nil {
		return nil, err
	}
	return &COResult{
		Point:    point,
		Cost:     c,
		Coverage: sub.CountCovering(point),
		Region:   region,
	}, nil
}

// SolveCOBestFirst solves CO exactly without materializing the full
// m-impact region: cells are processed in ascending order of a cost lower
// bound, cells that cannot reach m covering users are eliminated, and a
// cell wholly covering m users yields a candidate (its cheapest point).
// Because the bound is monotone down the tree, the search proves
// optimality as soon as the cheapest remaining cell cannot beat the
// incumbent — typically after exploring only the low-cost fringe of the
// region. Exact, like SolveCO, but without the Region by-product.
func SolveCOBestFirst(inst *Instance, m int, cost Cost, opts Options) (*COResult, error) {
	if err := inst.CheckM(m); err != nil {
		return nil, err
	}
	run := &aaRun{
		inst:     inst,
		m:        m,
		nU:       len(inst.Users),
		opts:     opts,
		tr:       celltree.New(geom.NewBox(inst.Dim, 0, 1)),
		mode:     modeMinCost,
		costFn:   cost,
		base:     make(geom.Vector, inst.Dim),
		bestCost: math.Inf(1),
	}
	run.seedRoot()
	run.drain()
	if run.bestPoint == nil {
		return nil, ErrNoSolution
	}
	return &COResult{
		Point:    run.bestPoint,
		Cost:     run.bestCost,
		Coverage: inst.CountCovering(run.bestPoint),
	}, nil
}

// minCostOverRegion minimizes cost.Eval(x - base) over the region's
// cells with lower-bound ordering and incumbent pruning.
func minCostOverRegion(inst *Instance, region *Region, cost Cost, base geom.Vector) (geom.Vector, float64, error) {
	if region.IsEmpty() {
		return nil, 0, ErrNoSolution
	}
	order := make([]int, len(region.Cells))
	lbs := make([]float64, len(region.Cells))
	for i := range order {
		order[i] = i
		lbs[i] = cost.LowerBound(region.MBBs[i][0], base)
	}
	sort.Slice(order, func(a, b int) bool { return lbs[order[a]] < lbs[order[b]] })
	var best geom.Vector
	bestCost := 0.0
	for _, i := range order {
		if best != nil && lbs[i] >= bestCost {
			break // remaining cells cannot beat the incumbent
		}
		x, c, err := inst.minCostInCell(region.Cells[i], cost, base)
		if err != nil {
			continue // numerically empty sliver
		}
		if best == nil || c < bestCost {
			best, bestCost = x, c
		}
	}
	if best == nil {
		return nil, 0, ErrNoSolution
	}
	return best, bestCost, nil
}

// minCostInCell returns the point of a reported cell minimizing
// cost.Eval(x - base) that also lies in every user halfspace covering the
// cell, each within geom.Eps — the tolerance CountCovering counts with.
//
// A user covers a cell when no point of the cell lies ClassifyTol or more
// below the user's boundary (geom.Polytope.Classify), so the cell's
// cheapest point, which sits on the cell's boundary, can fall up to
// ClassifyTol short of a covering user's halfspace and not count as
// covered. Each such near miss is re-checked with Classify against the
// cell; the covering ones join the cell's rows and the minimization
// reruns, until no covering user is missed. The region itself is not
// touched. In the common case — no near miss — this is exactly
// cost.MinOverCell.
func (inst *Instance) minCostInCell(poly *geom.Polytope, cost Cost, base geom.Vector) (geom.Vector, float64, error) {
	x, c, err := cost.MinOverCell(poly, base)
	var tight *geom.Polytope
	var added map[int]bool
	for err == nil {
		grew := false
		for u, h := range inst.HS {
			v := h.Eval(x)
			if v >= -geom.Eps || v < -2*geom.ClassifyTol || added[u] {
				continue
			}
			if poly.Classify(h) != geom.Covers {
				continue
			}
			if tight == nil {
				tight, added = poly.Clone(), map[int]bool{}
			}
			tight.Append(h)
			added[u] = true
			grew = true
		}
		if !grew {
			return x, c, nil
		}
		x, c, err = cost.MinOverCell(tight, base)
	}
	return nil, 0, err
}

// AAWithBox runs AA over a restricted product-space box instead of
// [0,1]^d (used by the IS-style problems, whose search space is the part
// of product space dominating the product being upgraded).
func AAWithBox(inst *Instance, m int, opts Options, box *geom.Polytope) (*Region, error) {
	if err := inst.CheckM(m); err != nil {
		return nil, err
	}
	run := &aaRun{
		inst: inst,
		m:    m,
		nU:   len(inst.Users),
		opts: opts,
		tr:   celltree.New(box),
	}
	// The specialized 2-D path reports regions that extend to the unit
	// box; with a restricted box it remains valid (reported parts are
	// intersected with the cell), so no special handling is needed.
	run.seedRoot()
	run.drain()
	return run.region(), nil
}

// upgradeBox returns [p, 1]^d.
func upgradeBox(p geom.Vector) *geom.Polytope {
	hi := make(geom.Vector, len(p))
	for i := range hi {
		hi[i] = 1
	}
	return geom.NewBoxCorners(p, hi)
}
