// Package cuts provides the connectivity substrate of the paper: Tarjan
// articulation points, enumeration of minimal 2-cuts (separation pairs)
// and their crossing relation (§5.3), and — the paper's new notion —
// r-local k-cuts (Definition 2.1) together with r-interesting vertices
// (§3.2).
//
// The Cuts kernel behind Algorithm 1's steps 2 and 3 (csr.go) keeps its
// searches inside the blocks of the input (graph.CSR.Blocks). A global
// articulation point is an r-local 1-cut at every r >= 1, since its
// neighbors in different blocks lie apart in every ball, and it admits
// every partner, so it opens no pass-1 ball. Every other vertex u has all
// its neighbors in one block B: a path between two of them that leaves B
// returns through the articulation point it left by, and distances inside
// B are realised inside B, so u's separators and its 1-cut test read the
// same from the ball of B. A pass-2 pair {u, v} that shares a block B is
// labeled inside B: a component holding an articulation point c ∉ {u, v}
// with dist_B(c, {u, v}) < r also holds vertices beyond c and counts as
// uncovered, and an articulation end adds the components of its ball on
// its other blocks, summarized once in pass 1. Pairs that share no block
// are labeled on their whole ball, except two articulation points with no
// common neighbor: each touches two components through its own blocks,
// and none of those neighbors is adjacent to the other end.
package cuts

import "localmds/internal/graph"

// ArticulationPoints returns the cut vertices (minimal 1-cuts) of g in
// ascending order, via Tarjan's low-link DFS. Code on the CSR reads the
// Art flags of graph.CSR.Blocks instead; this *graph.Graph form is kept
// for the spec IsLocalOneCut, spqr's is2Connected check, the structure
// example and tests (cuts' tarjan_test.go, edgecases_test.go,
// local_test.go and blocks_test.go, and the root bench_test.go).
func ArticulationPoints(g *graph.Graph) []int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	isArt := make([]bool, n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	var dfs func(v, parent int)
	dfs = func(v, parent int) {
		disc[v] = timer
		low[v] = timer
		timer++
		children := 0
		for _, u := range g.Neighbors(v) {
			if u == parent {
				// Skip one parent edge occurrence; simple graphs have no
				// parallel edges so skipping all is equivalent.
				continue
			}
			if disc[u] >= 0 {
				if disc[u] < low[v] {
					low[v] = disc[u]
				}
				continue
			}
			children++
			dfs(u, v)
			if low[u] < low[v] {
				low[v] = low[u]
			}
			if parent >= 0 && low[u] >= disc[v] {
				isArt[v] = true
			}
		}
		if parent < 0 && children > 1 {
			isArt[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if disc[v] < 0 {
			dfs(v, -1)
		}
	}
	var out []int
	for v, a := range isArt {
		if a {
			out = append(out, v)
		}
	}
	return out
}
