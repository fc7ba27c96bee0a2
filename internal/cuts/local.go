package cuts

import (
	"maps"
	"slices"
	"sort"

	"localmds/internal/graph"
)

// IsLocalOneCut reports whether {v} is an r-local minimal 1-cut of g
// (Definition 2.1 with k = 1): v is a cut vertex of g[N^r[v]]. The ball
// subgraph is always connected (every member reaches v inside the ball), so
// every articulation point of it is a minimal 1-cut. It copies one induced
// ball per call and is kept as a spec: its callers are LocalOneCuts and
// cuts' edgecases_test.go, all test-only.
func IsLocalOneCut(g *graph.Graph, v, r int) bool {
	ball, idx := g.InducedBall(v, r)
	local := indexOf(idx, v)
	for _, a := range ArticulationPoints(ball) {
		if a == local {
			return true
		}
	}
	return false
}

// LocalOneCuts returns all vertices v such that {v} is an r-local minimal
// 1-cut of g, ascending. It copies one induced ball per vertex and is
// kept as the spec of LocalOneCutsCSR and the X of LocalCutsWorkers: its
// callers are tests (cuts' csr_test.go, graph's stampwrap_test.go, core's
// alg1_reference_test.go and the root bench_test.go).
func LocalOneCuts(g *graph.Graph, r int) []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if IsLocalOneCut(g, v, r) {
			out = append(out, v)
		}
	}
	return out
}

// IsLocalTwoCut reports whether {u, v} is an r-local minimal 2-cut of g
// (Definition 2.1 with k = 2): u and v are at distance at most r in g, and
// {u, v} is a minimal 2-cut of g[N^r[u] ∪ N^r[v]]. It copies one induced
// pair ball per call and is kept as the spec of the C2 of
// LocalCutsC2Workers: its callers are IsLocallyInteresting,
// LocallyInterestingVertices and tests (cuts' local_test.go, graph's
// stampwrap_test.go and core's mvc_reference_test.go).
func IsLocalTwoCut(g *graph.Graph, u, v, r int) bool {
	if u == v {
		return false
	}
	if d := g.Dist(u, v); d < 0 || d > r {
		return false
	}
	ball, idx := g.Induced(g.BallOfSet([]int{u, v}, r))
	lu, lv := indexOf(idx, u), indexOf(idx, v)
	return IsMinimalTwoCut(ball, lu, lv)
}

// IsLocallyInteresting reports whether v is r-interesting (§3.2): there is
// an r-local 2-cut c = {u, v} such that N[v] ⊈ N[u] (closed neighborhoods
// in g) and at least two connected components of g[N^r[c]] - c each contain
// a vertex non-adjacent to u. It is kept as a spec: its callers are
// LocallyInterestingVertices and cuts' local_test.go, all test-only.
func IsLocallyInteresting(g *graph.Graph, v, u, r int) bool {
	if !IsLocalTwoCut(g, u, v, r) {
		return false
	}
	nv := g.ClosedNeighborhood(v)
	nu := g.ClosedNeighborhood(u)
	if graph.IsSubset(nv, nu) {
		return false
	}
	ball, idx := g.Induced(g.BallOfSet([]int{u, v}, r))
	lu, lv := indexOf(idx, u), indexOf(idx, v)
	return componentsWithNonNeighborOfU(ball, lu, lv) >= 2
}

// LocallyInterestingVertices returns all vertices that are r-interesting
// through some r-local minimal 2-cut, ascending. This is the set I of the
// paper's Algorithm 1 (step 3). It copies one induced ball per tested
// pair and is kept as the spec of the I of LocalCutsWorkers: its callers
// are tests (cuts' csr_test.go, graph's stampwrap_test.go, core's
// alg1_reference_test.go and the root bench_test.go).
func LocallyInterestingVertices(g *graph.Graph, r int) []int {
	interesting := make(map[int]bool, g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Ball(u, r) {
			if v == u || (interesting[u] && interesting[v]) {
				continue
			}
			if !IsLocalTwoCut(g, u, v, r) {
				continue
			}
			if !interesting[u] && IsLocallyInteresting(g, u, v, r) {
				interesting[u] = true
			}
			if !interesting[v] && IsLocallyInteresting(g, v, u, r) {
				interesting[v] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(interesting))
}

func indexOf(sorted []int, v int) int {
	i := sort.SearchInts(sorted, v)
	if i < len(sorted) && sorted[i] == v {
		return i
	}
	return -1
}
