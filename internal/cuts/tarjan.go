// Package cuts provides the connectivity substrate of the paper: Tarjan
// articulation points, enumeration of minimal 2-cuts (separation pairs)
// and their crossing relation (§5.3), and — the paper's new notion —
// r-local k-cuts (Definition 2.1) together with r-interesting vertices
// (§3.2).
package cuts

import "localmds/internal/graph"

// ArticulationPoints returns the cut vertices (minimal 1-cuts) of g in
// ascending order, via Tarjan's low-link DFS.
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
