package geom

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestExtremePoints1D(t *testing.T) {
	pts := []Vector{{0.5}, {0.1}, {0.9}, {0.3}, {0.9}}
	got := ExtremePoints(pts)
	sort.Ints(got)
	if len(got) != 2 || pts[got[0]][0] != 0.1 || pts[got[1]][0] != 0.9 {
		t.Errorf("ExtremePoints = %v", got)
	}

	same := []Vector{{0.4}, {0.4}, {0.4}}
	if got := ExtremePoints(same); len(got) != 1 {
		t.Errorf("identical points: got %v, want one representative", got)
	}
}

func TestExtremePoints2DSquare(t *testing.T) {
	pts := []Vector{
		{0, 0}, {1, 0}, {1, 1}, {0, 1}, // corners
		{0.5, 0.5}, {0.25, 0.75}, {0.9, 0.1}, // interior
	}
	got := ExtremePoints(pts)
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	for _, i := range got {
		if !want[i] {
			// Collinear/interior points may only appear if they lie on the
			// boundary; interior ones must not.
			t.Errorf("interior point %d reported extreme", i)
		}
		delete(want, i)
	}
	if len(want) != 0 {
		t.Errorf("missing corners: %v", want)
	}
}

func TestExtremePointsHigherDim(t *testing.T) {
	// Simplex corners in 3D plus the centroid: corners are extreme, the
	// centroid is not.
	pts := []Vector{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 0, 0},
		{0.25, 0.25, 0.25},
	}
	got := ExtremePoints(pts)
	sort.Ints(got)
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("ExtremePoints = %v, want [0 1 2 3]", got)
	}
}

func TestInConvexHull(t *testing.T) {
	tri := []Vector{{0, 0}, {1, 0}, {0, 1}}
	if !InConvexHull(Vector{0.25, 0.25}, tri) {
		t.Error("interior point not in hull")
	}
	if !InConvexHull(Vector{0.5, 0.5}, tri) {
		t.Error("edge midpoint not in hull")
	}
	if !InConvexHull(Vector{1, 0}, tri) {
		t.Error("vertex not in hull")
	}
	if InConvexHull(Vector{0.6, 0.6}, tri) {
		t.Error("outside point in hull")
	}
	if InConvexHull(Vector{0.5, 0.5}, nil) {
		t.Error("empty point set contains nothing")
	}
}

// TestExtremePointsDuplicateVertex pins the duplicate rule: a vertex
// entered twice is reported once, at its lowest index. The all-pairs test
// rejected both copies, each lying in the hull of the other.
func TestExtremePointsDuplicateVertex(t *testing.T) {
	pts := []Vector{
		{0, 0, 0}, {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{0.1, 0.1, 0.1},
	}
	if got := ExtremePoints(pts); !slices.Equal(got, []int{0, 2, 3, 4}) {
		t.Errorf("ExtremePoints = %v, want [0 2 3 4]", got)
	}
	// Signed zeros are one point.
	pts[0] = Vector{math.Copysign(0, -1), 0, 0}
	if got := ExtremePoints(pts); !slices.Equal(got, []int{0, 2, 3, 4}) {
		t.Errorf("signed zeros: ExtremePoints = %v, want [0 2 3 4]", got)
	}
}

func randomPoints(rng *rand.Rand, n, dim int) []Vector {
	pts := make([]Vector, n)
	for i := range pts {
		pts[i] = make(Vector, dim)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// TestHullInvariant checks conv(V) = conv(pts): every original point must be
// a convex combination of the reported extreme points, in dims 2..4 (the
// weight-space dimensionalities exercised by the paper's d = 3..5).
func TestHullInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		dim := 2 + rng.Intn(3)
		n := 5 + rng.Intn(20)
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = make(Vector, dim)
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
		vIdx := ExtremePoints(pts)
		hull := make([]Vector, len(vIdx))
		for i, j := range vIdx {
			hull[i] = pts[j]
		}
		for i, p := range pts {
			if !InConvexHull(p, hull) {
				t.Errorf("trial %d (dim %d): point %d not in conv(V); |V|=%d",
					trial, dim, i, len(vIdx))
			}
		}
	}
}

// TestHullAgreement2D cross-checks the monotone-chain fast path against the
// LP-based method: the LP vertex set must be a subset of the chain's
// (the chain may retain collinear boundary points).
func TestHullAgreement2D(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(15)
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = Vector{rng.Float64(), rng.Float64()}
		}
		chain := map[int]bool{}
		for _, i := range extreme2D(pts) {
			chain[i] = true
		}
		for _, i := range extremeLPOracle(pts) {
			if !chain[i] {
				t.Errorf("trial %d: LP vertex %d missing from monotone chain", trial, i)
			}
		}
	}
}

func BenchmarkExtremePoints3D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Vector, 60)
	for i := range pts {
		pts[i] = Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtremePoints(pts)
	}
}

// extremeLPOracle is the historical higher-dimensional vertex test, kept as
// the reference for extremeCandidates: each point is tested against the
// hull of all the others.
func extremeLPOracle(pts []Vector) []int {
	var out []int
	others := make([]Vector, 0, len(pts)-1)
	for i, p := range pts {
		others = others[:0]
		for j, q := range pts {
			if j != i {
				others = append(others, q)
			}
		}
		if !InConvexHull(p, others) {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		// All points coincide (each is a combination of the duplicates);
		// keep one representative.
		out = append(out, 0)
	}
	return out
}

// FuzzExtremePoints differentially tests ExtremePoints in D = 3..6
// against extremeLPOracle. The points come from a seeded generator in one
// of four shapes, so the fuzzer explores shapes and sizes rather than
// near-degenerate floats, where the two tests may legitimately differ
// within hullTol:
//
//	0: general position; the output must equal the oracle's.
//	1: general position with exact copies of earlier rows injected (some
//	   differing only in the sign of a zero); the output must equal the
//	   oracle's on the deduplicated input.
//	2: points on an affine flat of dimension 1..D-1 (collinear up to
//	   coplanar), exact or rounded, on a coarse grid or not.
//	3: rows with NaN and ±Inf coordinates.
//
// Every output must be ascending, unique and repeatable; on finite inputs
// it must contain the oracle's vertices of the deduplicated input and
// every point it drops must lie in its hull. The committed corpus under
// testdata/fuzz seeds every shape.
func FuzzExtremePoints(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, dimB, nB, mode uint8, raw []byte) {
		dim := 3 + int(dimB%4)
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 4+int(nB%40), dim)
		rawAt := func(k int) int {
			if k < len(raw) {
				return int(raw[k])
			}
			return 0
		}
		switch mode % 4 {
		case 1:
			for k := 0; k < len(raw) && k < 16; k++ {
				src := int(raw[k]&0x7f) % len(pts)
				cp := append(Vector(nil), pts[src]...)
				if raw[k]&0x80 != 0 {
					pts[src][0] = 0
					cp[0] = math.Copysign(0, -1)
				}
				at := rng.Intn(len(pts) + 1)
				pts = slices.Insert(pts, at, cp)
			}
		case 2:
			flat := 1 + rawAt(0)%(dim-1)
			grid := rawAt(1)&1 != 0
			if rawAt(1)&2 != 0 {
				// Axis-aligned: the coordinates past the flat are constant.
				c := rng.Float64()
				for _, p := range pts {
					for j := flat; j < dim; j++ {
						p[j] = c
					}
					if grid {
						for j := 0; j < flat; j++ {
							p[j] = math.Round(p[j]*3) / 3
						}
					}
				}
			} else {
				// Skewed: origin plus combinations of flat random spans.
				span := randomPoints(rng, flat+1, dim)
				for _, p := range pts {
					for j := range p {
						p[j] = span[0][j]
					}
					for s := 1; s <= flat; s++ {
						c := rng.Float64()
						if grid {
							c = float64(rng.Intn(3)) / 2
						}
						for j := range p {
							p[j] += c * span[s][j]
						}
					}
				}
			}
		case 3:
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1}
			for k := 0; k+1 < len(raw) && k < 32; k += 2 {
				p := pts[int(raw[k])%len(pts)]
				p[int(raw[k+1]>>4)%dim] = bad[int(raw[k+1]&0xf)%len(bad)]
			}
		}

		got := ExtremePoints(pts)
		if again := ExtremePoints(pts); !slices.Equal(got, again) {
			t.Fatalf("not repeatable: %v then %v", got, again)
		}
		if len(got) == 0 || got[0] < 0 || got[len(got)-1] >= len(pts) {
			t.Fatalf("malformed output %v for %d points", got, len(pts))
		}
		for k := 1; k < len(got); k++ {
			if got[k] <= got[k-1] {
				t.Fatalf("output %v not strictly ascending", got)
			}
		}
		for _, p := range pts {
			for _, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return // no geometric contract on non-finite rows
				}
			}
		}

		// The oracle runs on the first copy of every distinct row, with its
		// indices mapped back.
		var uniq []Vector
		var first []int
		for i, p := range pts {
			dup := false
			for _, q := range uniq {
				if slices.Equal(p, q) { // == treats signed zeros as equal
					dup = true
					break
				}
			}
			if !dup {
				uniq = append(uniq, p)
				first = append(first, i)
			}
		}
		want := extremeLPOracle(uniq)
		for k, i := range want {
			want[k] = first[i]
		}
		switch mode % 4 {
		case 0, 1:
			if !slices.Equal(got, want) {
				t.Fatalf("D=%d n=%d: got %v, oracle on deduplicated input %v", dim, len(pts), got, want)
			}
		default:
			if len(want) == 1 {
				break // the oracle's representative of coinciding points
			}
			for _, i := range want {
				if _, ok := slices.BinarySearch(got, i); !ok {
					t.Fatalf("D=%d n=%d: oracle vertex %d missing from %v", dim, len(pts), i, got)
				}
			}
		}
		// Only dropped points need the LP: an output row, or an exact copy
		// of one, is in the hull by definition. (InConvexHull can miss a
		// member of the set itself when the feasible weights are pinned to
		// a sliver, e.g. a zero coordinate that few points share.)
		hull := make([]Vector, len(got))
		for k, i := range got {
			hull[k] = pts[i]
		}
		for i, p := range pts {
			if slices.ContainsFunc(hull, func(h Vector) bool { return slices.Equal(h, p) }) {
				continue
			}
			if !InConvexHull(p, hull) {
				t.Fatalf("D=%d n=%d: point %d not in conv(output %v)", dim, len(pts), i, got)
			}
		}
	})
}
