package core

import (
	"sort"
	"sync/atomic"

	"mir/internal/geom"
)

// Group collects the users that share a common top-k-th product r
// (Section 5.1). All their influential-halfspace boundaries pass through
// r, which powers the batch tests of Lemmas 3 and 4, keeps the
// arrangement small (zone-theorem argument), and enables the specialized
// two-dimensional insertion of Section 5.4.
type Group struct {
	Pivot int         // product index of r
	R     geom.Vector // coordinates of r
	// Members lists user indices. For d = 2 they are sorted by descending
	// w[1] (the paper's "i-th largest w[1]" ordering behind Lemmas 5/6);
	// for d > 2 the order is ascending user index.
	Members []int
	// Hull caches the positions (into Members) of the convex-hull vertices
	// of the member weight vectors in projected weight space. NewInstance
	// precomputes it (in parallel across groups); views over the full
	// member list reuse it, and views over subsets recompute lazily.
	Hull []int
}

// buildGroups partitions users by top-k-th product.
func buildGroups(inst *Instance) []*Group {
	byPivot := make(map[int]*Group)
	var order []int
	for ui, r := range inst.Kth {
		g, ok := byPivot[r.Index]
		if !ok {
			g = &Group{Pivot: r.Index, R: inst.Products[r.Index]}
			byPivot[r.Index] = g
			order = append(order, r.Index)
		}
		g.Members = append(g.Members, ui)
	}
	sort.Ints(order)
	groups := make([]*Group, 0, len(order))
	for _, pivot := range order {
		g := byPivot[pivot]
		if inst.Dim == 2 {
			sort.Slice(g.Members, func(a, b int) bool {
				wa := inst.Users[g.Members[a]].W[0]
				wb := inst.Users[g.Members[b]].W[0]
				if wa != wb {
					return wa > wb // descending w[1] (paper indexing)
				}
				return g.Members[a] < g.Members[b]
			})
		}
		groups = append(groups, g)
	}
	return groups
}

// GroupStats summarizes grouping effectiveness (paper Figure 11b).
type GroupStats struct {
	NumGroups   int
	AvgSize     float64
	MaxSize     int
	AvgHullSize float64
}

// GroupStats computes grouping statistics for the instance, including the
// average convex-hull vertex count per group (hulls in weight space), read
// from the hulls NewInstance cached. For d = 2 a group's cached hull is
// its {first, last} member, so a group of three or more coinciding
// members counts two vertices where ExtremePoints would report one.
func (inst *Instance) GroupStats() GroupStats {
	s := GroupStats{NumGroups: len(inst.Groups)}
	if s.NumGroups == 0 {
		return s
	}
	totalHull := 0
	for _, g := range inst.Groups {
		s.MaxSize = max(s.MaxSize, len(g.Members))
		totalHull += len(g.Hull)
	}
	s.AvgSize = float64(len(inst.Users)) / float64(s.NumGroups)
	s.AvgHullSize = float64(totalHull) / float64(s.NumGroups)
	return s
}

// view is the per-cell, copy-on-write remainder of a group: the members
// whose relation to the cell is still undecided (the entries of the
// paper's individualized c.G list). Views are immutable once shared
// between sibling cells except for the hull cache, which is computed
// lazily, holds a value that depends only on the (immutable) member list,
// and is published through an atomic pointer: sibling leaves handed the
// same view may be processed by different frontier workers, and a
// duplicated computation is cheaper than a lock.
type view struct {
	g       *Group
	members []int // user indices (inherit the group's ordering)
	// hull caches the positions (into members) of hull vertices.
	hull atomic.Pointer[[]int]
}

func newView(g *Group) *view {
	v := &view{g: g, members: g.Members}
	if g.Hull != nil {
		hull := g.Hull
		v.hull.Store(&hull)
	}
	return v
}

// hullPositions returns the positions (indices into v.members) of the
// convex-hull vertices of the view's user vectors in weight space. The
// cache fills lazily; concurrent fillers compute the same deterministic
// value (hullPositionsOf is a pure function of the member list), so the
// racing Store is idempotent. Root views arrive pre-seeded from the
// group's precomputed hull.
func (v *view) hullPositions(inst *Instance) []int {
	if p := v.hull.Load(); p != nil {
		return *p
	}
	hull := hullPositionsOf(inst, v.members)
	v.hull.Store(&hull)
	return hull
}

// hullPositionsOf returns the positions (indices into members) of the
// convex-hull vertices of the members' weight vectors in projected weight
// space. For d = 2 the members are sorted by w[1], so the 1-D hull is
// {first, last}.
func hullPositionsOf(inst *Instance, members []int) []int {
	if len(members) == 0 {
		return nil
	}
	if inst.Dim == 2 {
		if len(members) == 1 {
			return []int{0}
		}
		return []int{0, len(members) - 1}
	}
	pts := make([]geom.Vector, len(members))
	for i, ui := range members {
		pts[i] = inst.WProj[ui]
	}
	return geom.ExtremePoints(pts)
}

// withMembers derives a new view with the given member subset.
func (v *view) withMembers(members []int) *view {
	return &view{g: v.g, members: members}
}

// cellGroups is the payload a cell carries: its individualized pending
// group list. Slices of views are copied on modification; the views
// themselves are shared.
type cellGroups struct {
	views []*view
}

func (cg *cellGroups) clone() *cellGroups {
	// One slot of spare capacity: insertGroup clones a list and then
	// appends the opened view's remainder, which would otherwise force an
	// immediate reallocation.
	vs := make([]*view, len(cg.views), len(cg.views)+1)
	copy(vs, cg.views)
	return &cellGroups{views: vs}
}

// remove drops the view at position i (order not preserved).
func (cg *cellGroups) remove(i int) {
	last := len(cg.views) - 1
	cg.views[i] = cg.views[last]
	cg.views = cg.views[:last]
}

// undecided returns the total number of users still undecided for the cell.
func (cg *cellGroups) undecided() int {
	n := 0
	for _, v := range cg.views {
		n += len(v.members)
	}
	return n
}
