package graph

import (
	"fmt"
	"testing"
)

// TestParallelFor checks that every index is visited exactly once and
// that one worker state is built per worker, in order, across sizes on
// both sides of a chunk boundary and worker counts above n. Each visit
// reaches its worker's state through hits, which later newWorker calls
// append to, so under -race it also checks that every newWorker call
// happens before any visit.
func TestParallelFor(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 1000} {
		for _, workers := range []int{1, 2, 3, 8, n + 5} {
			for _, chunk := range []int{1, 32} {
				t.Run(fmt.Sprintf("n=%d/workers=%d/chunk=%d", n, workers, chunk), func(t *testing.T) {
					var hits [][]int // per worker, so visits write no shared memory
					ParallelFor(n, workers, chunk, func(k int) func(int) {
						if k != len(hits) {
							t.Errorf("newWorker(%d) called after %d workers", k, len(hits))
						}
						hits = append(hits, make([]int, n))
						return func(i int) { hits[k][i]++ }
					})
					if want := max(1, min(workers, n)); len(hits) != want {
						t.Errorf("newWorker called %d times, want %d", len(hits), want)
					}
					for i := 0; i < n; i++ {
						total := 0
						for _, h := range hits {
							total += h[i]
						}
						if total != 1 {
							t.Errorf("index %d visited %d times", i, total)
						}
					}
				})
			}
		}
	}
}
