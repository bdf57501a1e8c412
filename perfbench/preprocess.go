package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mir"
)

// The preprocess workload is large-population ingestion in a closed loop:
// each operation loads a big anti-correlated catalog and clustered
// population from the CSV files the benchmark wrote, builds an Analyzer
// over them, then asks prepQueries times for the most influential products
// and the coverage of a batch of points. The top-k index and the
// grouping/hull set-up do all the work; AA does none. Operations come in
// pairs on the same inputs, so every pair checks that the build repeats,
// and each pair draws fresh inputs so that a run averages over several
// catalogs.
const (
	prepProducts = 20000
	prepDim      = 4
	prepUsers    = 20000
	prepK        = 10
	prepTop      = 10
	// prepQueries is the number of MostInfluential calls, each followed
	// by a batch of prepReadPoints Coverage reads, per operation; one read
	// sample is the batch time over its size.
	prepQueries    = 3
	prepReadPoints = 256
	// prepOpSeconds is the nominal cost of one operation on a 2-CPU x86-64
	// host; it sizes the fixed operation list from -seconds.
	prepOpSeconds = 3.2
)

// prepOutput is what one operation produced, for the repeat check.
type prepOutput struct {
	groups int
	avg    float64
	top    []mir.Influence
	covs   []int // Coverage at the read points
	stable bool  // every query of the operation returned top and covs
}

func runPreprocess(cfg config) (*result, error) {
	pairs := max(2, int(math.Ceil(float64(cfg.seconds)/(2*prepOpSeconds))))
	res := &result{}
	var tr *tracer
	var meter *mirMeter
	var setupTot setupTotals
	var tracedOp, plainOp []float64
	if cfg.trace {
		// A traced operation also builds a core instance with its layers
		// timed and repeats the root-API pair, about twice the work.
		pairs = max(2, pairs/2)
		tr = newTracer()
		res.spans = tr
		meter = newMirMeter()
	}

	pf := filepath.Join(cfg.out, fmt.Sprintf("preprocess-%d-products.csv", cfg.seed))
	uf := filepath.Join(cfg.out, fmt.Sprintf("preprocess-%d-users.csv", cfg.seed))
	// inputs writes a pair's CSV files and reads them back for the traced
	// calls, so those see exactly the values plain loads.
	inputs := func(pair int) ([][]float64, []mir.User, error) {
		err := mir.SaveProductsCSV(pf, mir.SynthProducts(mir.AntiCorrelated, prepProducts, prepDim, subSeed(cfg.seed, int64(pair), 0)))
		if err == nil {
			err = mir.SaveUsersCSV(uf, mir.SynthUsers(mir.Clustered, prepUsers, prepDim, prepK, subSeed(cfg.seed, int64(pair), 1)))
		}
		if err != nil {
			return nil, nil, err
		}
		ps, err := mir.LoadProductsCSV(pf)
		if err != nil {
			return nil, nil, err
		}
		us, err := mir.LoadUsersCSV(uf)
		return ps, us, err
	}
	readPts := uniformPoints(rand.New(rand.NewSource(subSeed(cfg.seed, 9))), prepReadPoints, prepDim)
	plain := func() (out prepOutput, dL, dA float64, dI, dR []float64, err error) {
		runtime.GC()
		t0 := time.Now()
		ps, err := mir.LoadProductsCSV(pf)
		if err != nil {
			return out, 0, 0, nil, nil, err
		}
		us, err := mir.LoadUsersCSV(uf)
		dL = since(t0)
		if err != nil {
			return out, 0, 0, nil, nil, err
		}
		// Collect the load's garbage first, so its collection is not
		// charged to the build.
		runtime.GC()
		t1 := time.Now()
		an, err := mir.NewAnalyzer(ps, us, nil)
		dA = since(t1)
		if err != nil {
			return out, 0, 0, nil, nil, err
		}
		out.groups, out.avg = an.Groups()
		out.stable = true
		for q := 0; q < prepQueries; q++ {
			runtime.GC()
			t2 := time.Now()
			top := an.MostInfluential(prepTop)
			dI = append(dI, since(t2))
			d, covs := timeReads(an, readPts)
			dR = append(dR, d)
			if q == 0 {
				out.top, out.covs = top, covs
			} else {
				out.stable = out.stable && slices.Equal(top, out.top) && slices.Equal(covs, out.covs)
			}
		}
		return out, dL, dA, dI, dR, nil
	}
	// traced repeats plain's NewAnalyzer and first MostInfluential inside
	// spans with runtime/metrics reads and returns the time of the two
	// calls, to pair with the same two in plain.
	traced := func(op int, ps [][]float64, us []mir.User) (float64, error) {
		runtime.GC()
		root := tr.begin("preprocess.op", 0, op)
		defer tr.end(root)
		var an *mir.Analyzer
		var err error
		var d float64
		meter.measure(func() {
			id := tr.begin("mir.NewAnalyzer", root, op)
			an, err = mir.NewAnalyzer(ps, us, nil)
			d = tr.end(id)
		})
		if err != nil {
			return 0, err
		}
		runtime.GC()
		meter.measure(func() {
			id := tr.begin("mir.MostInfluential", root, op)
			an.MostInfluential(prepTop)
			d += tr.end(id)
		})
		return d, nil
	}

	var load, analyze, influence, reads []float64
	ps, us, err := inputs(0)
	if err != nil {
		return nil, err
	}
	ref, _, _, _, _, err := plain() // untimed warm-up
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for op := 0; op < 2*pairs; op++ {
		if op%2 == 0 && op > 0 {
			if ps, us, err = inputs(op / 2); err != nil {
				return nil, err
			}
			ref = prepOutput{}
		}
		if cfg.trace {
			setupSpan := tr.begin("core.setup", 0, op)
			_, err := traceSetup(tr, setupSpan, op, ps, us, &setupTot)
			tr.end(setupSpan)
			if err != nil {
				return nil, err
			}
		}
		var dTraced float64
		var errTraced error
		if cfg.trace && op%2 == 0 {
			dTraced, errTraced = traced(op, ps, us)
		}
		got, dL, dA, dI, dR, err := plain()
		if cfg.trace && op%2 == 1 {
			dTraced, errTraced = traced(op, ps, us)
		}
		if err != nil || errTraced != nil {
			res.check(false)
			res.check(false)
			res.check(false)
			continue
		}
		if cfg.trace {
			tracedOp = append(tracedOp, dTraced)
			plainOp = append(plainOp, dA+dI[0])
		}
		load = append(load, dL)
		analyze = append(analyze, dA)
		influence = append(influence, dI...)
		reads = append(reads, dR...)
		okTop := got.stable && len(got.top) == prepTop && slices.IsSortedFunc(got.top, func(a, b mir.Influence) int {
			return b.Coverage - a.Coverage
		})
		okCovs := !slices.ContainsFunc(got.covs, func(c int) bool { return c < 0 || c > prepUsers })
		if ref.top != nil {
			res.check(got.groups == ref.groups && got.avg == ref.avg)
			res.check(okTop && slices.Equal(got.top, ref.top))
			res.check(okCovs && slices.Equal(got.covs, ref.covs))
		} else {
			res.check(got.groups > 0)
			res.check(okTop)
			res.check(okCovs)
		}
		ref = got
	}

	res.note("operations", "%d timed in %d input pairs + 1 warm-up", 2*pairs, pairs)
	res.note("inputs", "ANTI |P|=%d d=%d, %d CL users k=%d from CSV; per operation %d x (MostInfluential(%d), %d Coverage reads)",
		prepProducts, prepDim, prepUsers, prepK, prepQueries, prepTop, prepReadPoints)
	res.e2e("setup_s", "s", median(load), len(load))
	res.e2e("op_ms_p50", "ms", median(analyze)*1e3, len(analyze))
	res.e2e("read_ms_p50", "ms", median(reads)*1e3, len(reads))
	// Printed but not gated: MostInfluential chases the index through
	// memory, and on a shared host its median over ten seeds spread by up
	// to 0.34 while neighbours contended for the cache.
	res.extra("influence_ms_p50", "ms", median(influence)*1e3, len(influence))
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	res.e2e("peak_rss_mb", "MiB", rss, 1)
	if cfg.trace {
		setupTot.report(res)
		meter.report(res)
		res.layer("trace.overhead_share", "ratio", overheadShare(tracedOp, plainOp), len(plainOp))
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-preprocess-%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}
