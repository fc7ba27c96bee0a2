// CSR-native cut enumeration: the Algorithm 1 step-2/step-3 detectors
// (r-local minimal 1-cuts and r-interesting vertices) over a frozen
// graph.CSR. No ball is ever copied out: a ball is a generation stamp over
// the host CSR's own vertex ids (graph.CSR.MarkBall), and the cut tests
// are BFS probes restricted to it that stop as soon as the answer is
// known (graph.CSR.NeighborsSplit). The vertex loop splits across a fixed set of workers. Each
// detector returns exactly the set its *graph.Graph counterpart returns,
// at every worker count; csr_test.go checks that on the Table 1 families.
package cuts

import "localmds/internal/graph"

// LocalOneCutsCSR returns all vertices v such that {v} is an r-local
// minimal 1-cut of c (Definition 2.1 with k = 1), ascending. It is
// LocalOneCutsWorkers with one worker.
func LocalOneCutsCSR(c *graph.CSR, r int, a *graph.Arena) []int {
	return LocalOneCutsWorkers(c, r, 1, a)
}

// LocalOneCutsWorkers is LocalOneCutsCSR with the vertex loop split across
// min(workers, n) goroutines; a serves the first of them. The result is
// the same at every worker count.
//
// A ball subgraph is always connected, and every component of
// c[N^r[v]] - v contains a neighbor of v (the last step of a shortest
// path to v), so v is a local 1-cut iff its neighbors lie in at least two
// components of N^r[v] - v.
func LocalOneCutsWorkers(c *graph.CSR, r, workers int, a *graph.Arena) []int {
	return forEachVertex(c.N(), workers, a, func(a *graph.Arena, cut []bool) func(int) {
		return func(v int) {
			c.MarkBall(v, -1, r, a)
			cut[v] = c.NeighborsSplit(v, -1, a)
		}
	})
}

// LocallyInterestingVerticesCSR returns the set I of Algorithm 1 step 3 —
// all vertices that are r-interesting through some r-local minimal 2-cut
// (§3.2) — ascending. It is LocallyInterestingVerticesWorkers with one
// worker.
func LocallyInterestingVerticesCSR(c *graph.CSR, r int, a *graph.Arena) []int {
	return LocallyInterestingVerticesWorkers(c, r, 1, a)
}

// LocallyInterestingVerticesWorkers is LocallyInterestingVerticesCSR with
// the vertex loop split across min(workers, n) goroutines; a serves the
// first of them. The result is the same at every worker count: each
// worker skips only directions its own bitmap already holds, so the skips
// save work and never change the union.
//
// Each unordered pair {u, v} at distance at most r is tested once, from
// its smaller end: the ball N^r[{u, v}] and the test are symmetric, and
// one test decides both directions. The cheapest checks run first:
//
//  1. A direction is needed only if its vertex is not yet known to be
//     interesting and N[self] ⊈ N[other].
//  2. {u, v} is a minimal 2-cut of its ball only if u and v each have
//     neighbors in two components of ball - {u, v} (NeighborsSplit). All
//     of u's neighbors lie in N^r[u], a subset of every pair ball, so if
//     they are connected in N^r[u] - {u, v} the pair fails without its
//     ball being marked. That pre-check is skipped for a u whose
//     neighbors are already split in N^r[u] - u, where it rarely rejects.
//  3. Only pairs passing both probes in the pair ball get its components
//     labeled for the direction test: at least two of them hold a vertex
//     not adjacent to other.
func LocallyInterestingVerticesWorkers(c *graph.CSR, r, workers int, a *graph.Arena) []int {
	return forEachVertex(c.N(), workers, a, func(a *graph.Arena, interesting []bool) func(int) {
		var ballU []int32
		return func(u int) {
			if c.Degree(u) < 2 {
				return // u cannot have neighbors in two components
			}
			ballU = c.AppendBall(ballU[:0], u, r, a)
			marked := true // AppendBall left N^r[u] as the current ball
			preCheck := !c.NeighborsSplit(u, -1, a)
			for _, v32 := range ballU {
				v := int(v32)
				if v <= u || c.Degree(v) < 2 {
					continue
				}
				needU := !interesting[u] && !c.ClosedSubset(u, v)
				needV := !interesting[v] && !c.ClosedSubset(v, u)
				if !needU && !needV {
					continue
				}
				if preCheck {
					if !marked {
						c.MarkBall(u, -1, r, a)
						marked = true
					}
					if !c.NeighborsSplit(u, v, a) {
						continue
					}
				}
				c.MarkBall(u, v, r, a)
				marked = false
				if !c.NeighborsSplit(u, v, a) || !c.NeighborsSplit(v, u, a) {
					continue
				}
				c.LabelPairComponents(u, v, a)
				if needU && c.ComponentsNotCoveredBy(v, a) >= 2 {
					interesting[u] = true
				}
				if needV && c.ComponentsNotCoveredBy(u, a) >= 2 {
					interesting[v] = true
				}
			}
		}
	})
}

// rangeSize is how many consecutive vertices a worker claims at a time:
// large enough that the shared cursor is touched rarely, small enough that
// the last ranges balance uneven per-vertex cost.
const rangeSize = 32

// forEachVertex runs a visit function for every vertex 0..n-1 and returns,
// ascending, the vertices any visit flagged. The loop splits across
// min(workers, n) workers (graph.ParallelFor, claiming rangeSize vertices
// at a time); newVisit builds each worker's visit function over that
// worker's own arena (a, or a fresh one, for the first) and its own flag
// bitmap; the bitmaps are OR-merged in vertex order.
func forEachVertex(n, workers int, a *graph.Arena, newVisit func(a *graph.Arena, flagged []bool) func(v int)) []int {
	var flags [][]bool
	graph.ParallelFor(n, workers, rangeSize, func(k int) func(int) {
		wa := a
		if k > 0 {
			wa = graph.NewArena()
		}
		flags = append(flags, make([]bool, n))
		return newVisit(wa, flags[k])
	})
	hit := flags[0]
	for _, f := range flags[1:] {
		for v, ok := range f {
			if ok {
				hit[v] = true
			}
		}
	}
	var out []int
	for v, ok := range hit {
		if ok {
			out = append(out, v)
		}
	}
	return out
}
