package mds

import (
	"fmt"
	"sort"

	"localmds/internal/graph"
)

// MaxExactMVCVertices bounds the instances the exact MVC solver accepts.
const MaxExactMVCVertices = 200

// ExactMVC returns a minimum vertex cover of g. Treewidth-<=2 inputs
// dispatch to the unbounded DP; the rest run branch and bound with a
// matching lower bound, capped at MaxExactMVCVertices and, when
// opt.MaxNodes > 0, at that many search nodes; opt.MaxVertices is ignored.
// An exhausted budget returns an error; the node count is deterministic,
// so the same inputs exhaust it on every run.
func ExactMVC(g *graph.Graph, opt ExactOptions) ([]int, error) {
	if sol, err := exactMVCTreewidth2(g); err == nil {
		sort.Ints(sol)
		return sol, nil
	}
	if g.N() > MaxExactMVCVertices {
		return nil, fmt.Errorf("mds: graph has %d vertices, exact MVC capped at %d", g.N(), MaxExactMVCVertices)
	}
	// Upper bound: greedy matching 2-approximation.
	best := MatchingVertexCover(g)
	removed := make([]bool, g.N())
	var cur []int
	var nodes int64
	aborted := false
	var rec func()
	rec = func() {
		if aborted {
			return
		}
		nodes++
		if opt.MaxNodes > 0 && nodes > opt.MaxNodes {
			aborted = true
			return
		}
		if len(cur) >= len(best) {
			return
		}
		// Lower bound via greedy matching on the residual graph.
		if len(cur)+residualMatchingSize(g, removed) >= len(best) {
			return
		}
		// Pick the vertex with the most uncovered incident edges.
		u := pickBranchVertex(g, removed)
		if u < 0 {
			best = append(best[:0:0], cur...)
			return
		}
		// Branch 1: u in the cover.
		removed[u] = true
		cur = append(cur, u)
		rec()
		cur = cur[:len(cur)-1]
		// Branch 2: u not in the cover, so all its uncovered neighbors
		// must be (u stays marked removed: its edges are covered from the
		// other side).
		var added []int
		for _, w := range g.Neighbors(u) {
			if !removed[w] {
				removed[w] = true
				cur = append(cur, w)
				added = append(added, w)
			}
		}
		rec()
		for _, w := range added {
			removed[w] = false
		}
		cur = cur[:len(cur)-len(added)]
		removed[u] = false
	}
	rec()
	if aborted {
		return nil, fmt.Errorf("mds: exact MVC search exceeded the %d-node budget", opt.MaxNodes)
	}
	sort.Ints(best)
	return best, nil
}

// pickBranchVertex returns the non-removed vertex with the most uncovered
// incident edges, or -1 when every edge is covered.
func pickBranchVertex(g *graph.Graph, removed []bool) int {
	bestU, bestDeg := -1, 0
	for u := 0; u < g.N(); u++ {
		if removed[u] {
			continue
		}
		deg := 0
		for _, w := range g.Neighbors(u) {
			if !removed[w] {
				deg++
			}
		}
		if deg > bestDeg {
			bestU, bestDeg = u, deg
		}
	}
	return bestU
}

// residualMatchingSize greedily matches uncovered edges; a matching of size
// k forces at least k more cover vertices.
func residualMatchingSize(g *graph.Graph, removed []bool) int {
	used := make([]bool, g.N())
	size := 0
	for u := 0; u < g.N(); u++ {
		if removed[u] || used[u] {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if !removed[w] && !used[w] && w != u {
				used[u], used[w] = true, true
				size++
				break
			}
		}
	}
	return size
}

// MatchingVertexCover returns the classical 2-approximate vertex cover:
// both endpoints of a greedy maximal matching.
func MatchingVertexCover(g *graph.Graph) []int {
	used := make([]bool, g.N())
	var cover []int
	g.VisitEdges(func(u, v int) {
		if !used[u] && !used[v] {
			used[u], used[v] = true, true
			cover = append(cover, u, v)
		}
	})
	sort.Ints(cover)
	return cover
}
