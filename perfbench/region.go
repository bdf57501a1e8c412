package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"mir"
	"mir/internal/core"
)

// The region workload is exploratory analysis in a closed loop with one
// caller: a sequence of sessions, each over a fresh set of three catalogs
// (IND, COR, ANTI) and three clustered user populations. A session builds
// its three Analyzers, then runs ImpactRegion(m) and CostOptimalFast(m,
// L2) on each; m cycles through regionMs from session to session. AA's
// frontier does nearly all the work; the top-k index only serves the
// small set-up. The cost of AA varies by tens of percent between random
// instances of this size, so a run spreads over many small sessions.
const (
	regionProducts = 5000
	regionDim      = 3
	regionUsers    = 60
	regionK        = 10
	// regionSessionSeconds is the nominal cost of one session on a 2-CPU
	// x86-64 host; -seconds / regionSessionSeconds sessions, rounded up to
	// whole cycles of regionMs, make the fixed operation list.
	regionSessionSeconds = 0.9
	regionCheckPoints    = 40
	// regionReadPoints is the batch of Coverage reads timed after each
	// step; one sample is the batch time over its size.
	regionReadPoints = 256
)

var regionMs = []int{15, 30, 45}

var families = []struct {
	name string
	dist mir.ProductDist
}{{"IND", mir.Independent}, {"COR", mir.Correlated}, {"ANTI", mir.AntiCorrelated}}

// regionInput is one catalog and population with its brute-force oracle.
type regionInput struct {
	products [][]float64
	users    []mir.User
	oracle   *oracle
}

func regionInputs(seed int64, session int) []regionInput {
	in := make([]regionInput, len(families))
	for f, fam := range families {
		ps := mir.SynthProducts(fam.dist, regionProducts, regionDim, subSeed(seed, int64(session), int64(f), 0))
		us := mir.SynthUsers(mir.Clustered, regionUsers, regionDim, regionK, subSeed(seed, int64(session), int64(f), 1))
		in[f] = regionInput{products: ps, users: us, oracle: newOracle(ps, us)}
	}
	return in
}

// stepRef is what one (family, m) step produced, for the repeat check.
type stepRef struct {
	cells int
	cost  float64
}

// regionRun carries one run's state across sessions.
type regionRun struct {
	res   *result
	rng   *rand.Rand // check points
	trace *tracer    // nil when untraced
	op    int

	readPts            [][]float64 // the timed Coverage batch, fixed per run
	setup              []float64   // per-session Analyzer build time
	rss                []float64   // per-session peak RSS, MiB
	regionOps, placeOp []float64   // per-operation latencies
	reads              []float64   // per-read Coverage latency, one sample per batch

	// Traced runs only.
	tracedStep, plainStep []float64 // paired step times for the overhead
	meter                 *mirMeter
	setupTot              setupTotals
	aa                    aaTotals
	coTimes, aaTimes      []float64
}

func runRegion(cfg config) (*result, error) {
	cycles := int(math.Ceil(float64(cfg.seconds) / regionSessionSeconds / float64(len(regionMs))))
	w := &regionRun{res: &result{}, rng: rand.New(rand.NewSource(subSeed(cfg.seed, 7)))}
	w.readPts = uniformPoints(rand.New(rand.NewSource(subSeed(cfg.seed, 8))), regionReadPoints, regionDim)
	if cfg.trace {
		// A traced step runs the root-API calls twice and the core calls
		// once, so half the sessions keep the run about as long.
		cycles = (cycles + 1) / 2
		w.trace = newTracer()
		w.res.spans = w.trace
		w.meter = newMirMeter()
	}

	// The untimed warm-up session runs session 1's inputs; its outputs
	// are the reference the timed session 1 must repeat.
	sessions := cycles * len(regionMs)
	mOf := func(s int) int { return regionMs[(s-1)%len(regionMs)] }
	warm := regionInputs(cfg.seed, 1)
	ref, err := w.session(warm, mOf(1), nil, false)
	if err != nil {
		return nil, err
	}
	for s := 1; s <= sessions; s++ {
		in := warm
		if s > 1 {
			in = regionInputs(cfg.seed, s)
		}
		var want []stepRef
		if s == 1 {
			want = ref
		}
		if _, err := w.session(in, mOf(s), want, true); err != nil {
			return nil, err
		}
	}

	r := w.res
	r.note("sessions", "%d timed + 1 warm-up, %d ImpactRegion + %d CostOptimalFast per session",
		sessions, len(families), len(families))
	r.note("inputs", "|P|=%d d=%d, %d CL users k=%d per catalog, m in %v", regionProducts, regionDim, regionUsers, regionK, regionMs)
	r.e2e("setup_s", "s", median(w.setup), len(w.setup))
	r.e2e("op_ms_p50", "ms", median(w.regionOps)*1e3, len(w.regionOps))
	r.e2e("read_ms_p50", "ms", median(w.reads)*1e3, len(w.reads))
	// Printed but not gated: the tail is ImpactRegion's; CostOptimalFast's
	// cost varies several-fold between instances of one (catalog, m) pair,
	// and its median spread past the largest bound the benchmark may set.
	r.reportOnly = append(r.reportOnly, tailMetric("op_ms_tail", "ms", w.regionOps, 1e3),
		metric{Name: "place_ms_p50", Value: median(w.placeOp) * 1e3, Unit: "ms", N: len(w.placeOp)})
	r.e2e("peak_rss_mb", "MiB", median(w.rss), len(w.rss))
	if cfg.trace {
		w.setupTot.report(r)
		w.meter.report(r)
		// The frontier's figures exist on this workload only, so they
		// are printed but left out of the result line.
		r.extra("core.aa_s", "s", median(w.aaTimes), len(w.aaTimes))
		r.extra("core.co_s", "s", median(w.coTimes), len(w.coTimes))
		w.aa.report(r)
		r.layer("trace.overhead_share", "ratio", overheadShare(w.tracedStep, w.plainStep), len(w.plainStep))
		if err := w.trace.write(filepath.Join(cfg.out, fmt.Sprintf("spans-region-%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// session builds the three Analyzers and runs the step at m on each.
// With want set, each step's cell count and placement cost must repeat
// the reference; the returned refs are this session's own.
func (w *regionRun) session(in []regionInput, m int, want []stepRef, timed bool) ([]stepRef, error) {
	r := w.res
	if timed {
		// Each session's peak is one sample: the process-wide peak would
		// be set by the largest of some seventy random instances alone.
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
	}
	ans := make([]*mir.Analyzer, len(in))
	t0 := time.Now()
	for f, x := range in {
		a, err := mir.NewAnalyzer(x.products, x.users, nil)
		if !r.check(err == nil) {
			return nil, fmt.Errorf("NewAnalyzer(%s): %w", families[f].name, err)
		}
		ans[f] = a
	}
	if timed {
		w.setup = append(w.setup, since(t0))
	}
	var insts []*core.Instance
	if w.trace != nil && timed {
		for _, x := range in {
			inst, err := traceSetup(w.trace, 0, w.op, x.products, x.users, &w.setupTot)
			if err != nil {
				return nil, err
			}
			insts = append(insts, inst)
		}
	}

	var refs []stepRef
	for f := range in {
		w.op++
		reg, pl, dReg, dPlace, err := w.step(ans[f], m)
		if err != nil {
			// Both operations of the step count as failed.
			r.check(false)
			r.check(false)
			refs = append(refs, stepRef{})
			continue
		}
		got := stepRef{cells: reg.NumCells(), cost: pl.Cost}
		refs = append(refs, got)
		okRegion := w.checkRegion(ans[f], reg, in[f].oracle, m)
		okPlace := pl.Coverage >= m && ans[f].Coverage(pl.Point) >= m
		if want != nil {
			okRegion = okRegion && got.cells == want[len(refs)-1].cells
			okPlace = okPlace && got.cost == want[len(refs)-1].cost
		}
		r.check(okRegion)
		r.check(okPlace)
		if !timed {
			continue
		}
		w.regionOps = append(w.regionOps, dReg)
		w.placeOp = append(w.placeOp, dPlace)
		dRead, covs := timeReads(ans[f], w.readPts)
		w.reads = append(w.reads, dRead)
		r.check(w.checkReads(in[f].oracle, covs))
		if w.trace != nil {
			if err := w.traceCore(insts[f], m, got); err != nil {
				return nil, fmt.Errorf("%s m=%d: %w", families[f].name, m, err)
			}
		}
	}
	if timed {
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		w.rss = append(w.rss, rss)
	}
	return refs, nil
}

// step runs ImpactRegion then CostOptimalFast. A traced run also repeats
// the pair with spans and runtime/metrics reads, alternating which goes
// first, and keeps the untraced pair's results and times.
func (w *regionRun) step(an *mir.Analyzer, m int) (*mir.Region, *mir.Placement, float64, float64, error) {
	plain := func() (*mir.Region, *mir.Placement, float64, float64, error) {
		t0 := time.Now()
		reg, err := an.ImpactRegion(m)
		dReg := since(t0)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		t1 := time.Now()
		pl, err := an.CostOptimalFast(m, mir.L2())
		return reg, pl, dReg, since(t1), err
	}
	if w.trace == nil {
		return plain()
	}
	traced := func() (float64, error) {
		t0 := time.Now()
		root := w.trace.begin("region.step", 0, w.op)
		var err error
		w.meter.measure(func() {
			id := w.trace.begin("mir.ImpactRegion", root, w.op)
			_, err = an.ImpactRegion(m)
			w.trace.end(id)
		})
		if err == nil {
			w.meter.measure(func() {
				id := w.trace.begin("mir.CostOptimalFast", root, w.op)
				_, err = an.CostOptimalFast(m, mir.L2())
				w.trace.end(id)
			})
		}
		w.trace.end(root)
		return since(t0), err
	}
	var dTraced float64
	var errTraced error
	if w.op%2 == 0 {
		dTraced, errTraced = traced()
	}
	reg, pl, dReg, dPlace, err := plain()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if w.op%2 == 1 {
		dTraced, errTraced = traced()
	}
	if errTraced != nil {
		return nil, nil, 0, 0, errTraced
	}
	w.tracedStep = append(w.tracedStep, dTraced)
	w.plainStep = append(w.plainStep, dReg+dPlace)
	return reg, pl, dReg, dPlace, nil
}

// traceCore runs the core calls the root API wraps, with zero options, to
// read the counters mir.Stats hides. The results must match the API's.
func (w *regionRun) traceCore(inst *core.Instance, m int, want stepRef) error {
	id := w.trace.begin("core.AA", 0, w.op)
	reg, err := core.AA(inst, m, core.Options{})
	w.aaTimes = append(w.aaTimes, w.trace.end(id))
	if err != nil {
		return err
	}
	w.aa.add(reg)
	id = w.trace.begin("core.SolveCOBestFirst", 0, w.op)
	co, err := core.SolveCOBestFirst(inst, m, core.L2Cost{}, core.Options{})
	w.coTimes = append(w.coTimes, w.trace.end(id))
	if err != nil {
		return err
	}
	w.res.check(len(reg.Cells) == want.cells && co.Cost == want.cost)
	return nil
}

// timeReads times Coverage over a batch of points and returns the mean
// seconds per read, with the counts the reads returned.
func timeReads(an *mir.Analyzer, pts [][]float64) (float64, []int) {
	covs := make([]int, len(pts))
	t0 := time.Now()
	for i, p := range pts {
		covs[i] = an.Coverage(p)
	}
	return since(t0) / float64(len(pts)), covs
}

// checkReads checks the timed batch's coverage counts against the
// brute-force recount wherever a point clears every boundary.
func (w *regionRun) checkReads(o *oracle, covs []int) bool {
	for i, p := range w.readPts {
		if want, gap := o.coverage(p); gap >= boundaryTol && covs[i] != want {
			return false
		}
	}
	return true
}

// checkRegion samples points and checks that region membership agrees
// with Coverage >= m, and that Coverage agrees with the brute-force
// recount, wherever a point clears every user's boundary by boundaryTol.
func (w *regionRun) checkRegion(an *mir.Analyzer, reg *mir.Region, o *oracle, m int) bool {
	checked := 0
	for _, p := range samplePoints(w.rng, reg, regionCheckPoints) {
		want, gap := o.coverage(p)
		if gap < boundaryTol {
			continue
		}
		checked++
		cov := an.Coverage(p)
		if cov != want || reg.Contains(p) != (cov >= m) {
			return false
		}
	}
	return checked > 0
}
