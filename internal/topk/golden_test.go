package topk_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mir/internal/data"
	"mir/internal/geom"
	"mir/internal/topk"
)

// goldenSearch is one pinned all-top-k run: the index's layer sizes and
// the search counters of a sequential AllTopKWorkers pass, plus an FNV-64a
// digest of every (id, score bits) answer.
type goldenSearch struct {
	name       string
	layers     []int
	scanned    int64
	prunes     int64
	resultHash uint64
}

// goldenInstance builds the fixed seeded instance a golden case names.
func goldenInstance(dist string, n, d, users, k int) ([]geom.Vector, []topk.UserPref) {
	rng := rand.New(rand.NewSource(20260417))
	var ps []geom.Vector
	switch dist {
	case "IND":
		ps = data.Independent(rng, n, d)
	case "ANTI":
		ps = data.AntiCorrelated(rng, n, d)
	case "GRID":
		// Three attribute levels: duplicate rows everywhere, so block
		// maxima are member rows and bounds tie the heap root exactly.
		ps = make([]geom.Vector, n)
		for i := range ps {
			ps[i] = make(geom.Vector, d)
			for j := range ps[i] {
				ps[i][j] = float64(rng.Intn(3)) / 2
			}
		}
	default:
		panic("unknown distribution " + dist)
	}
	return ps, data.WithK(data.ClusteredUsers(rng, users, d, 5, 0.05), k)
}

// TestIndexSearchGoldenCounters pins the index's layer sizes and the
// exact search effort (rows scored, block granules pruned) on fixed
// seeded IND, ANTI and tie-heavy GRID instances at k=1 and k=10. The peel and the bound
// queue may get faster, but a change that moves any of these numbers
// changed the index or the search order, not just its speed. The values
// were recorded before the grid-pruned peel and the push-skip queue
// landed, so they also pin that neither moved a counter.
func TestIndexSearchGoldenCounters(t *testing.T) {
	golden := []goldenSearch{
		{name: "IND/6000x3/k=1", layers: []int{571, 643, 539, 514, 515, 771, 737, 1710}, scanned: 6902, prunes: 300901, resultHash: 0xfa88374c3d4fca6e},
		{name: "IND/6000x3/k=10", layers: []int{571, 643, 539, 514, 515, 771, 737, 1710}, scanned: 23544, prunes: 298807, resultHash: 0xc164bd0e0fcb2984},
		{name: "ANTI/6000x4/k=1", layers: []int{1143, 1759, 1489, 935, 580, 94}, scanned: 28055, prunes: 297280, resultHash: 0x8744d5f0c11c5f32},
		{name: "ANTI/6000x4/k=10", layers: []int{1143, 1759, 1489, 935, 580, 94}, scanned: 87747, prunes: 289785, resultHash: 0xd5fca44b0a9544bf},
		{name: "GRID/3000x3/k=1", layers: []int{1131, 792, 644, 433}, scanned: 67816, prunes: 142073, resultHash: 0x3a1e675acfa8e050},
		{name: "GRID/3000x3/k=10", layers: []int{1131, 792, 644, 433}, scanned: 67816, prunes: 142073, resultHash: 0x8298c4d08214e933},
	}
	want := map[string]goldenSearch{}
	for _, g := range golden {
		want[g.name] = g
	}
	for _, c := range []struct {
		dist     string
		n, d, nu int
	}{
		{"IND", 6000, 3, 400},
		{"ANTI", 6000, 4, 400},
		{"GRID", 3000, 3, 400},
	} {
		for _, k := range []int{1, 10} {
			name := fmt.Sprintf("%s/%dx%d/k=%d", c.dist, c.n, c.d, k)
			ps, us := goldenInstance(c.dist, c.n, c.d, c.nu, k)
			ix := topk.NewIndex(ps)
			res, st := ix.AllTopKWorkers(us, 1)
			h := fnv.New64a()
			for _, r := range res {
				fmt.Fprintf(h, "%d:%x;", r.Index, math.Float64bits(r.Score))
			}
			got := goldenSearch{
				name:       name,
				layers:     ix.LayerSizes(),
				scanned:    st.ScannedProducts,
				prunes:     st.LayerPrunes,
				resultHash: h.Sum64(),
			}
			if w, ok := want[name]; !ok || !reflect.DeepEqual(got, w) {
				t.Errorf("%s: got %#v\nwant %#v", name, got, w)
			}
		}
	}
}
