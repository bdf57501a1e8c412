package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"mir"
	"mir/internal/core"
	"mir/internal/geom"
	"mir/internal/topk"
)

// This file times calls into the engine's internal layers for traced
// runs. The benchmark makes the same calls the root API makes, with zero
// core.Options, so the counters it reads describe the work the untraced
// run does.

// mirMeter accumulates runtime/metrics deltas around root-API calls.
type mirMeter struct {
	ops             int
	allocBytes      float64
	gcCPU, totalCPU float64
	samples         []metrics.Sample
}

func newMirMeter() *mirMeter {
	return &mirMeter{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (m *mirMeter) read() (alloc, gc, total float64) {
	metrics.Read(m.samples)
	return float64(m.samples[0].Value.Uint64()), m.samples[1].Value.Float64(), m.samples[2].Value.Float64()
}

// measure runs fn as one root-API operation and adds its deltas.
func (m *mirMeter) measure(fn func()) {
	a0, g0, c0 := m.read()
	fn()
	a1, g1, c1 := m.read()
	m.ops++
	m.allocBytes += a1 - a0
	m.gcCPU += g1 - g0
	m.totalCPU += c1 - c0
}

func (m *mirMeter) report(r *result) {
	r.layer("mir.alloc_mb_per_op", "MiB", m.allocBytes/float64(m.ops)/(1<<20), m.ops)
	r.layer("mir.gc_cpu_share", "ratio", m.gcCPU/m.totalCPU, m.ops)
}

// toEngine deep-copies root-API inputs into the engine's types, as
// NewAnalyzer does.
func toEngine(products [][]float64, users []mir.User) ([]geom.Vector, []topk.UserPref) {
	ps := make([]geom.Vector, len(products))
	for i, p := range products {
		ps[i] = append(geom.Vector(nil), p...)
	}
	us := make([]topk.UserPref, len(users))
	for i, u := range users {
		us[i] = topk.UserPref{W: append(geom.Vector(nil), u.Weights...), K: u.K}
	}
	return ps, us
}

// setupTotals sums the core set-up layers over traced instance builds.
type setupTotals struct {
	builds                      int
	indexBuild, search          float64 // topk spans, seconds
	instance, hull, hullMaxStep float64 // core and geom spans, seconds
	hullImbalance               float64 // summed per build
	groups, members, hullVerts  int
	users                       int
	layers                      int
	scanned, prunes             int64
}

// traceSetup builds a core instance from the inputs the way NewAnalyzer
// does, and beside it times the two topk calls the build makes and the
// convex hull of every user group, one group at a time. The topk and hull
// calls repeat work NewInstanceOpts does internally, so the instance
// span's self time excludes them arithmetically: core.setup_self_s is
// the instance time minus the two topk spans.
func traceSetup(t *tracer, parent, op int, products [][]float64, users []mir.User, tot *setupTotals) (*core.Instance, error) {
	ps, us := toEngine(products, users)

	id := t.begin("topk.NewIndex", parent, op)
	ix := topk.NewIndex(ps)
	tot.indexBuild += t.end(id)
	id = t.begin("topk.AllTopKWorkers", parent, op)
	_, st := ix.AllTopKWorkers(us, 0)
	tot.search += t.end(id)
	tot.scanned += st.ScannedProducts
	tot.prunes += st.LayerPrunes
	tot.layers += ix.NumLayers()
	tot.users += len(us)

	id = t.begin("core.NewInstanceOpts", parent, op)
	inst, err := core.NewInstanceOpts(ps, us, core.Options{})
	tot.instance += t.end(id)
	if err != nil {
		return nil, err
	}

	hid := t.begin("geom.hulls", parent, op)
	maxGroup := 0.0
	sum := 0.0
	for _, g := range inst.Groups {
		pts := make([]geom.Vector, len(g.Members))
		for i, u := range g.Members {
			pts[i] = inst.WProj[u]
		}
		gid := t.begin("geom.ExtremePoints", hid, op)
		hull := geom.ExtremePoints(pts)
		d := t.end(gid)
		sum += d
		maxGroup = max(maxGroup, d)
		tot.members += len(g.Members)
		tot.hullVerts += len(hull)
	}
	t.end(hid)
	tot.hull += sum
	tot.hullMaxStep = max(tot.hullMaxStep, maxGroup)
	if sum > 0 {
		// Slowest group against the mean per-worker share of hull time:
		// above 1, one group outlasts an even split of the parallel stage.
		tot.hullImbalance += maxGroup / (sum / float64(runtime.GOMAXPROCS(0)))
	}
	tot.groups += len(inst.Groups)
	tot.builds++
	return inst, nil
}

func (s *setupTotals) report(r *result) {
	n := float64(s.builds)
	r.layer("topk.index_build_s", "s", s.indexBuild/n, s.builds)
	r.layer("topk.search_s", "s", s.search/n, s.builds)
	r.layer("topk.scanned_per_user", "count", float64(s.scanned)/float64(s.users), s.users)
	r.layer("topk.prunes_per_user", "count", float64(s.prunes)/float64(s.users), s.users)
	r.layer("topk.layers", "count", float64(s.layers)/n, s.builds)
	r.layer("core.instance_s", "s", s.instance/n, s.builds)
	r.layer("core.setup_self_s", "s", (s.instance-s.indexBuild-s.search)/n, s.builds)
	r.layer("geom.hull_s", "s", s.hull/n, s.builds)
	r.layer("geom.hull_max_group_s", "s", s.hullMaxStep, s.builds)
	r.layer("par.hull_imbalance", "ratio", s.hullImbalance/n, s.builds)
	r.layer("core.groups", "count", float64(s.groups)/n, s.builds)
	r.layer("core.avg_group_size", "count", float64(s.members)/float64(s.groups), s.groups)
	r.layer("core.hull_vertex_share", "ratio", float64(s.hullVerts)/float64(s.members), s.members)
}

// aaTotals sums the counters of core.AA runs.
type aaTotals struct {
	runs, schedRuns int
	st              core.Stats
	steals          int
	maxFrontier     int
	imbalance       float64
}

func (a *aaTotals) add(reg *core.Region) {
	a.runs++
	s := reg.Stats
	a.st.Cells += s.Cells
	a.st.Splits += s.Splits
	a.st.PruneLPTests += s.PruneLPTests
	a.st.PrunedRows += s.PrunedRows
	a.st.ContainmentTests += s.ContainmentTests
	a.st.FastTests += s.FastTests
	a.st.HullTests += s.HullTests
	a.st.GroupBatchHits += s.GroupBatchHits
	a.st.Iterations += s.Iterations
	a.st.Reported += s.Reported
	a.st.Eliminated += s.Eliminated
	a.st.EarlyReported += s.EarlyReported
	a.st.EarlyEliminated += s.EarlyEliminated
	a.st.Pivots += s.Pivots
	a.st.WarmHits += s.WarmHits
	a.st.WarmMisses += s.WarmMisses
	a.st.ColdSolves += s.ColdSolves
	if sc := reg.Sched; sc != nil && len(sc.PerWorkerCells) > 0 {
		a.schedRuns++
		a.steals += sc.Steals
		a.maxFrontier = max(a.maxFrontier, sc.MaxFrontier)
		total, most := 0, 0
		for _, c := range sc.PerWorkerCells {
			total += c
			most = max(most, c)
		}
		if total > 0 {
			a.imbalance += float64(most) / (float64(total) / float64(len(sc.PerWorkerCells)))
		}
	}
}

func (a *aaTotals) report(r *result) {
	n := float64(a.runs)
	s := a.st
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(num, den int64) float64 { return float64(num) / float64(den) }
	r.extra("celltree.cells", "count", per(int64(s.Cells)), a.runs)
	r.extra("celltree.splits", "count", per(int64(s.Splits)), a.runs)
	r.extra("celltree.prune_lps", "count", per(int64(s.PruneLPTests)), a.runs)
	r.extra("celltree.pruned_per_lp", "ratio", ratio(int64(s.PrunedRows), int64(s.PruneLPTests)), a.runs)
	r.extra("geom.containment_lps", "count", per(int64(s.ContainmentTests)), a.runs)
	r.extra("geom.fast_tests", "count", per(int64(s.FastTests)), a.runs)
	r.extra("geom.lps_per_cell", "ratio", ratio(int64(s.ContainmentTests), int64(s.Cells)), a.runs)
	r.extra("core.hull_tests", "count", per(int64(s.HullTests)), a.runs)
	r.extra("core.batch_hit_share", "ratio", ratio(int64(s.GroupBatchHits), int64(s.HullTests)), a.runs)
	r.extra("core.iterations", "count", per(int64(s.Iterations)), a.runs)
	r.extra("core.early_decided_share", "ratio",
		ratio(int64(s.EarlyReported+s.EarlyEliminated), int64(s.Reported+s.Eliminated)), a.runs)
	r.extra("lp.pivots", "count", per(s.Pivots), a.runs)
	r.extra("lp.pivots_per_solve", "ratio", ratio(s.Pivots, s.WarmHits+s.ColdSolves), a.runs)
	r.extra("lp.warm_hit_share", "ratio", ratio(s.WarmHits, s.WarmHits+s.WarmMisses), a.runs)
	r.extra("lp.cold_solves", "count", per(s.ColdSolves), a.runs)
	sn := float64(a.schedRuns)
	r.extra("par.steals", "count", float64(a.steals)/sn, a.schedRuns)
	r.extra("par.max_frontier", "count", float64(a.maxFrontier), a.schedRuns)
	r.extra("par.imbalance", "ratio", a.imbalance/sn, a.schedRuns)
}

// overheadShare is the median paired ratio of traced to untraced
// end-to-end time, minus one.
func overheadShare(traced, untraced []float64) float64 {
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i] / untraced[i]
	}
	return median(ratios) - 1
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
