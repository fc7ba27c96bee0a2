package graph

import (
	"sync"
	"sync/atomic"
)

// ParallelFor calls a visit function once for every index 0..n-1, split
// across min(workers, n) workers that claim chunk consecutive indices at a
// time from a shared atomic cursor. newWorker(k) builds worker k's visit
// function over that worker's own state (an Arena, scratch buffers, an
// output bitmap); it is called for k = 0, 1, … in the calling goroutine
// before any visit runs. With a single worker every visit runs in the
// calling goroutine and no goroutine starts; otherwise ParallelFor joins
// every goroutine it started before it returns.
//
// Which worker visits which index depends on scheduling, so a caller
// that needs a deterministic result writes each index's output to its
// own slot, or merges the per-worker state in worker order afterwards.
//
// ParallelFor is the repository's one fixed-size fan-out. Its callers are
// the Cuts kernel (cuts, a vertex range per claim), ComponentSolve (core,
// one residual component per claim), the LOCAL simulator's compute phase
// (local, a chunk of the active vertices per claim), the chunked text
// parser (graphio, one line-aligned chunk per claim) and the sweep
// orchestrator (runner, one task per claim). runner.Pool is the service's
// job queue, not a fan-out.
func ParallelFor(n, workers, chunk int, newWorker func(k int) func(i int)) {
	workers = max(1, min(workers, n))
	if workers == 1 {
		visit := newWorker(0)
		for i := 0; i < n; i++ {
			visit(i)
		}
		return
	}
	chunk = max(1, chunk)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	visits := make([]func(int), workers)
	for k := range visits {
		visits[k] = newWorker(k)
	}
	for _, visit := range visits {
		//mdsvet:ignore boundedgo -- fixed set of min(workers, n) goroutines, joined before return: this is the repository's one bounded fan-out
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					visit(i)
				}
			}
		}()
	}
	wg.Wait()
}
