package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mir/internal/geom"
)

// referenceBuild is the historical plain-scan peel, kept verbatim as the
// oracle of the grid-filtered one: every candidate is checked against the
// round's members in member order, and the scan stops at the first member
// whose attribute sum falls below sum(p) - d·Eps.
func (ix *Index) referenceBuild() {
	d := ix.dim
	remaining := make([]int, 0, ix.nAlive)
	for id, ok := range ix.alive {
		if ok {
			remaining = append(remaining, id)
		}
	}
	sums := make([]float64, len(ix.alive))
	for _, id := range remaining {
		sums[id] = ix.row(id).Sum()
	}
	sort.Slice(remaining, func(a, b int) bool {
		if sums[remaining[a]] != sums[remaining[b]] {
			return sums[remaining[a]] > sums[remaining[b]]
		}
		return remaining[a] < remaining[b]
	})

	ix.layers = ix.layers[:0]
	next := make([]int, 0, len(remaining))
	var layerIDs, band []int
	for len(remaining) > 0 {
		if len(ix.layers) == ix.maxLayers-1 {
			band = append(band, remaining...)
			remaining = remaining[:0]
			break
		}
		layerIDs, next = layerIDs[:0], next[:0]
		for _, id := range remaining {
			p := ix.row(id)
			pSum := sums[id]
			dominated := false
			for _, j := range layerIDs {
				if sums[j] < pSum-float64(d)*geom.Eps {
					break
				}
				if ix.row(j).Dominates(p) {
					dominated = true
					break
				}
			}
			if dominated {
				next = append(next, id)
			} else {
				layerIDs = append(layerIDs, id)
			}
		}
		band = append(band, layerIDs...)
		if len(band) >= layerBandRows {
			ix.pushLayer(band)
			band = band[:0]
		}
		remaining, next = next, remaining[:0]
	}
	if len(band) > 0 {
		ix.pushLayer(band)
	}
	ix.rebuildRowMaps()
}

// referenceIndex is NewIndexLayers built by referenceBuild.
func referenceIndex(products []geom.Vector, maxLayers int) *Index {
	d := 0
	if len(products) > 0 {
		d = len(products[0])
	}
	ix := &Index{dim: d, maxLayers: maxLayers, nAlive: len(products)}
	for _, p := range products {
		ix.rowData = append(ix.rowData, p...)
		ix.alive = append(ix.alive, true)
	}
	ix.referenceBuild()
	return ix
}

// referenceSkyband is the historical plain-scan Skyband, the oracle of
// the filtered one.
func referenceSkyband(products []geom.Vector, k int) []int {
	n := len(products)
	order := make([]int, n)
	sums := make([]float64, n)
	for i, p := range products {
		order[i] = i
		sums[i] = p.Sum()
	}
	sort.Slice(order, func(a, b int) bool {
		if sums[order[a]] != sums[order[b]] {
			return sums[order[a]] > sums[order[b]]
		}
		return order[a] < order[b]
	})
	var band []int
	d := 0
	if n > 0 {
		d = len(products[0])
	}
	for _, i := range order {
		p := products[i]
		pFloor := sums[i] - float64(d)*geom.Eps
		dominators := 0
		for _, j := range band {
			if sums[j] < pFloor {
				break
			}
			if products[j].Dominates(p) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			band = append(band, i)
		}
	}
	sort.Ints(band)
	return band
}

// peelRows draws n d-dimensional rows in one of six styles: uniform,
// anti-correlated (many large peel rounds), a 3-level grid jittered by
// less than Eps (ties, near-ties and duplicates everywhere), values outside [0,1], uniform with forced
// duplicate rows, and uniform with non-finite coordinates sprinkled in at
// the given per-coordinate rate.
func peelRows(rng *rand.Rand, n, d, style int, special float64) []geom.Vector {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	ps := make([]geom.Vector, n)
	for i := range ps {
		p := make(geom.Vector, d)
		for j := range p {
			switch style % 6 {
			case 1:
				p[j] = 0.5 + 0.15*rng.NormFloat64()
			case 2:
				// Grid levels with jitter well inside Eps: exact ties, and
				// near-ties straddling the filter's cell boundaries.
				p[j] = float64(rng.Intn(3))/2 + float64(rng.Intn(3)-1)*0.4*geom.Eps
			case 3:
				p[j] = -2 + 5*rng.Float64()
			default:
				p[j] = rng.Float64()
			}
		}
		if style%6 == 1 {
			// Project onto the plane sum = d/2 with jitter: anti-correlated.
			shift := (float64(d)/2 - p.Sum()) / float64(d)
			for j := range p {
				p[j] += shift + 0.02*rng.NormFloat64()
			}
		}
		if style%6 == 5 {
			for j := range p {
				if rng.Float64() < special {
					p[j] = specials[rng.Intn(len(specials))]
				}
			}
		}
		ps[i] = p
	}
	if style%6 == 4 {
		for c := 0; c < n/3; c++ {
			ps[rng.Intn(n)] = ps[rng.Intn(n)].Clone()
		}
	}
	return ps
}

// sameBits reports whether two float slices are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkPeelIdentity asserts that NewIndexLayers and Skyband agree exactly
// with their plain-scan references on ps: same layers, each with the same
// ids and bit-identical rows and maxima, and the same skyband for several k.
func checkPeelIdentity(t *testing.T, ps []geom.Vector, maxLayers int) {
	t.Helper()
	got := NewIndexLayers(ps, maxLayers)
	want := referenceIndex(ps, maxLayers)
	if len(got.layers) != len(want.layers) {
		t.Fatalf("%d layers %v, reference %d %v",
			len(got.layers), got.LayerSizes(), len(want.layers), want.LayerSizes())
	}
	for l := range want.layers {
		g, w := got.layers[l], want.layers[l]
		if len(g.ids) != len(w.ids) {
			t.Fatalf("layer %d has %d rows, reference %d", l, len(g.ids), len(w.ids))
		}
		for i := range w.ids {
			if g.ids[i] != w.ids[i] {
				t.Fatalf("layer %d row %d is product %d, reference %d", l, i, g.ids[i], w.ids[i])
			}
		}
		if !sameBits(g.flat, w.flat) || !sameBits(g.blockFlat, w.blockFlat) || !sameBits(g.superFlat, w.superFlat) {
			t.Fatalf("layer %d rows or maxima differ bitwise", l)
		}
	}
	for _, k := range []int{1, 2, 5} {
		g, w := Skyband(ps, k), referenceSkyband(ps, k)
		if len(g) != len(w) {
			t.Fatalf("skyband-%d has %d members, reference %d", k, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("skyband-%d member %d is %d, reference %d", k, i, g[i], w[i])
			}
		}
	}
}

// TestIndexPeelMatchesReference pins the grid-filtered peel (and Skyband,
// which shares its filter) to the historical plain scan: d = 1..6, sizes
// from a single row to several closed layers, every row style including
// ties, duplicates, coordinates outside [0,1] and ±Inf/NaN coordinates,
// and several peel caps.
func TestIndexPeelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for d := 1; d <= 6; d++ {
		for style := 0; style < 6; style++ {
			for _, n := range []int{0, 1, 9, 700, 2000} {
				ps := peelRows(rng, n, d, style, 0.02)
				for _, maxLayers := range []int{1, 3, DefaultMaxLayers} {
					checkPeelIdentity(t, ps, maxLayers)
				}
			}
		}
	}
}

// TestPeelSumCutoffFiresUnderNaN shows why the filter keeps the sum
// cutoff: a NaN sum compares equal to everything in the sort, so the
// finite rows A (sum 1), D (sum 2) and C (sum 1.8) keep their input order
// around it and the historical scan stops at A before reaching D, which
// dominates C. The filter must count C's dominators the same way.
func TestPeelSumCutoffFiresUnderNaN(t *testing.T) {
	a := geom.Vector{0.5, 0.5}
	nan := geom.Vector{math.NaN(), 0.6}
	dd := geom.Vector{1, 1}
	c := geom.Vector{0.9, 0.9}
	rows := []geom.Vector{a, nan, dd, c}
	f := newDomFilter(2, len(rows), func(i int) geom.Vector { return rows[i] })
	for _, m := range []geom.Vector{a, nan, dd} {
		f.add(m, m.Sum())
	}
	if got := f.dominators(c, c.Sum(), 1); got != 0 {
		t.Fatalf("C has %d dominators within the cutoff, want 0 (the scan stops at A)", got)
	}
	if got := referenceSkyband(rows, 1); len(got) != 4 {
		t.Fatalf("reference skyline %v: the historical scan should keep C", got)
	}
	if got := Skyband(rows, 1); len(got) != 4 {
		t.Fatalf("skyline %v, want all four rows as the historical scan keeps them", got)
	}
}

// FuzzIndexPeel differentially fuzzes the grid-filtered peel and Skyband
// against their plain-scan references over seeded row sets: the inputs
// choose the dimensionality, size, row style, non-finite coordinate rate
// and peel cap; the committed corpus under testdata/fuzz covers every
// style.
func FuzzIndexPeel(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(900), uint8(0), uint8(0), uint8(8))
	f.Add(int64(2), uint8(3), uint16(1400), uint8(1), uint8(0), uint8(8))
	f.Add(int64(3), uint8(1), uint16(800), uint8(2), uint8(0), uint8(3))
	f.Add(int64(4), uint8(4), uint16(1100), uint8(5), uint8(40), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, dRaw uint8, nRaw uint16, style, special, layersRaw uint8) {
		d := int(dRaw)%6 + 1
		n := int(nRaw) % 3000
		rng := rand.New(rand.NewSource(seed))
		ps := peelRows(rng, n, d, int(style), float64(special)/1024)
		checkPeelIdentity(t, ps, int(layersRaw)%9+1)
	})
}
