package geom_test

import (
	"math/rand"
	"slices"
	"testing"

	"mir/internal/core"
	"mir/internal/data"
	"mir/internal/geom"
)

// TestGroupHullsMatchOracle pins the precomputed group hulls of a d = 4
// instance (3-D weight space, the candidate-filtered path) to the
// historical all-pairs vertex test, position for position, for every
// worker count of the largest-first hull stage.
func TestGroupHullsMatchOracle(t *testing.T) {
	const n, d, k = 6000, 4, 10
	ps := data.AntiCorrelated(rand.New(rand.NewSource(41)), n, d)
	us := data.WithK(data.ClusteredUsers(rand.New(rand.NewSource(42)), n, d, 5, 0.05), k)
	var want [][]int
	for _, workers := range []int{1, 2, 4, 8} {
		inst, err := core.NewInstanceOpts(ps, us, core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			for _, g := range inst.Groups {
				pts := make([]geom.Vector, len(g.Members))
				for i, u := range g.Members {
					pts[i] = inst.WProj[u]
				}
				want = append(want, geom.ExtremeLPOracle(pts))
			}
		}
		if len(inst.Groups) != len(want) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(inst.Groups), len(want))
		}
		for gi, g := range inst.Groups {
			if !slices.Equal(g.Hull, want[gi]) {
				t.Fatalf("workers=%d group %d (%d members): hull %v, oracle %v",
					workers, gi, len(g.Members), g.Hull, want[gi])
			}
		}
	}
}
