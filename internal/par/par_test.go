package par

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	for _, w := range []int{1, 2, 7} {
		if got := Resolve(w); got != w {
			t.Errorf("Resolve(%d) = %d, want %d", w, got, w)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 5, 97} {
			hits := make([]int32, n)
			For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForWorkerChunksAreContiguousAndDeterministic(t *testing.T) {
	const n, workers = 23, 4
	owner := make([]int, n)
	ForWorker(n, workers, func(w, i int) { owner[i] = w })
	// Chunked assignment: worker ids must be non-decreasing across the
	// index range, and every worker id below the cap must appear.
	seen := make(map[int]bool)
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("non-contiguous chunks: owner[%d]=%d < owner[%d]=%d",
				i, owner[i], i-1, owner[i-1])
		}
	}
	for _, w := range owner {
		seen[w] = true
	}
	if len(seen) != workers {
		t.Fatalf("expected %d distinct workers, saw %d", workers, len(seen))
	}
	// A second run must produce the identical assignment.
	again := make([]int, n)
	ForWorker(n, workers, func(w, i int) { again[w*0+i] = w })
	for i := range owner {
		if owner[i] != again[i] {
			t.Fatalf("chunk assignment not deterministic at index %d", i)
		}
	}
}

func TestForWorkerSingleWorkerRunsInline(t *testing.T) {
	// With workers=1 the indices must arrive strictly in order (inline
	// execution, no goroutines).
	var prev = -1
	ForWorker(10, 1, func(w, i int) {
		if w != 0 {
			t.Fatalf("worker id %d with a single worker", w)
		}
		if i != prev+1 {
			t.Fatalf("out-of-order index %d after %d", i, prev)
		}
		prev = i
	})
	if prev != 9 {
		t.Fatalf("visited %d indices, want 10", prev+1)
	}
}

func TestForOrderCoversEveryIndexOnce(t *testing.T) {
	order := []int{7, 3, 9, 0, 1, 2, 4, 5, 6, 8}
	for _, workers := range []int{1, 2, 3, 16} {
		var hits [10]atomic.Int32
		var seq []int
		ForOrder(order, workers, func(i int) {
			hits[i].Add(1)
			if workers == 1 {
				seq = append(seq, i)
			}
		})
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
		if workers == 1 && !slices.Equal(seq, order) {
			t.Fatalf("single worker ran %v, want %v", seq, order)
		}
	}
	ForOrder(nil, 4, func(int) { t.Fatal("empty order ran a task") })
}
