// Package cuts provides the connectivity substrate of the paper: Tarjan
// articulation points and biconnected components, enumeration of minimal 2-cuts (separation pairs) and their
// crossing relation (§5.3), and — the paper's new notion — r-local k-cuts
// (Definition 2.1) together with r-interesting vertices (§3.2).
package cuts

import (
	"sort"

	"localmds/internal/graph"
)

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

// BiconnectedComponents returns the maximal 2-connected components
// ("blocks") of g as sorted vertex sets. Every edge belongs to exactly one
// block; a bridge forms a 2-vertex block. Isolated vertices form
// single-vertex blocks.
func BiconnectedComponents(g *graph.Graph) [][]int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	var stack [][2]int
	var blocks [][]int
	emit := func(until [2]int) {
		seen := map[int]bool{}
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			seen[e[0]] = true
			seen[e[1]] = true
			if e == until {
				break
			}
		}
		verts := make([]int, 0, len(seen))
		for v := range seen {
			verts = append(verts, v)
		}
		sort.Ints(verts)
		blocks = append(blocks, verts)
	}
	var dfs func(v, parent int)
	dfs = func(v, parent int) {
		disc[v] = timer
		low[v] = timer
		timer++
		for _, u := range g.Neighbors(v) {
			if u == parent {
				continue
			}
			if disc[u] >= 0 {
				if disc[u] < disc[v] {
					stack = append(stack, [2]int{v, u})
					if disc[u] < low[v] {
						low[v] = disc[u]
					}
				}
				continue
			}
			e := [2]int{v, u}
			stack = append(stack, e)
			dfs(u, v)
			if low[u] < low[v] {
				low[v] = low[u]
			}
			if low[u] >= disc[v] {
				emit(e)
			}
		}
	}
	for v := 0; v < n; v++ {
		if disc[v] < 0 {
			dfs(v, -1)
			if g.Degree(v) == 0 {
				blocks = append(blocks, []int{v})
			}
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i][0] < blocks[j][0] })
	return blocks
}
