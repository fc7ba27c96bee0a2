package mds

import (
	"fmt"
	"sort"

	"localmds/internal/graph"
)

// MaxExactMVCVertices bounds the instances the exact MVC solver accepts.
const MaxExactMVCVertices = 200

// ExactMVC returns a minimum vertex cover of c. Treewidth-<=2 inputs go
// to the width-2 elimination DP, with no size limit; the rest run branch
// and bound with a matching lower bound, capped at MaxExactMVCVertices
// and, when opt.MaxNodes > 0, at that many search nodes. An exhausted
// budget returns an error; the node count is deterministic, so the same
// inputs exhaust it on every run.
func ExactMVC(c *graph.CSR, opt ExactOptions) ([]int, error) {
	if sol, err := solveTW2(c, mvcRule{}); err == nil {
		return sol, nil
	}
	if c.N() > MaxExactMVCVertices {
		return nil, fmt.Errorf("mds: graph has %d vertices, exact MVC capped at %d", c.N(), MaxExactMVCVertices)
	}
	// Upper bound: greedy matching 2-approximation.
	best := MatchingVertexCover(c)
	st := newMVCSearch(c)
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
		if len(cur)+st.residualMatchingSize() >= len(best) {
			return
		}
		// Pick the vertex with the most uncovered incident edges.
		u := st.pickBranchVertex()
		if u < 0 {
			best = append(best[:0:0], cur...)
			return
		}
		// Branch 1: u in the cover.
		st.remove(u)
		cur = append(cur, u)
		rec()
		cur = cur[:len(cur)-1]
		// Branch 2: u not in the cover, so all its uncovered neighbors
		// must be (u stays marked removed: its edges are covered from the
		// other side). They are the tail of cur, which is the undo trail.
		mark := len(cur)
		for _, w := range c.Row(u) {
			if !st.removed[w] {
				st.remove(int(w))
				cur = append(cur, int(w))
			}
		}
		rec()
		for _, w := range cur[mark:] {
			st.restore(w)
		}
		cur = cur[:mark]
		st.restore(u)
	}
	rec()
	if aborted {
		return nil, fmt.Errorf("mds: exact MVC search exceeded the %d-node budget", opt.MaxNodes)
	}
	sort.Ints(best)
	return best, nil
}

// mvcSearch is ExactMVC's residual graph: the removed (covered) vertices,
// each vertex's count of non-removed neighbors, kept up to date on every
// remove and restore, and a stamped scratch mark for the matching bound,
// so no search node allocates.
type mvcSearch struct {
	c       *graph.CSR
	removed []bool
	deg     []int
	used    []uint32 // used[u] == stamp: u is matched in the current bound
	stamp   uint32
}

func newMVCSearch(c *graph.CSR) *mvcSearch {
	st := &mvcSearch{
		c:       c,
		removed: make([]bool, c.N()),
		deg:     make([]int, c.N()),
		used:    make([]uint32, c.N()),
	}
	for u := range c.N() {
		st.deg[u] = c.Degree(u)
	}
	return st
}

// remove marks u covered.
func (st *mvcSearch) remove(u int) {
	st.removed[u] = true
	for _, w := range st.c.Row(u) {
		st.deg[w]--
	}
}

// restore undoes remove(u).
func (st *mvcSearch) restore(u int) {
	st.removed[u] = false
	for _, w := range st.c.Row(u) {
		st.deg[w]++
	}
}

// pickBranchVertex returns the lowest-indexed non-removed vertex with the
// most uncovered incident edges, or -1 when every edge is covered.
func (st *mvcSearch) pickBranchVertex() int {
	bestU, bestDeg := -1, 0
	for u, d := range st.deg {
		if !st.removed[u] && d > bestDeg {
			bestU, bestDeg = u, d
		}
	}
	return bestU
}

// residualMatchingSize greedily matches uncovered edges; a matching of size
// k forces at least k more cover vertices. A vertex without uncovered
// edges cannot be matched, so it is skipped without a neighbour scan.
func (st *mvcSearch) residualMatchingSize() int {
	st.stamp++
	if st.stamp == 0 {
		clear(st.used)
		st.stamp = 1
	}
	used, stamp := st.used, st.stamp
	size := 0
	for u := range st.deg {
		if st.removed[u] || used[u] == stamp || st.deg[u] == 0 {
			continue
		}
		for _, w := range st.c.Row(u) {
			if !st.removed[w] && used[w] != stamp && int(w) != u {
				used[u], used[w] = stamp, stamp
				size++
				break
			}
		}
	}
	return size
}

// MatchingVertexCover returns the classical 2-approximate vertex cover:
// both endpoints of a greedy maximal matching, edges taken in (u, v)
// order with u < v.
func MatchingVertexCover(c *graph.CSR) []int {
	used := make([]bool, c.N())
	var cover []int
	for u := range c.N() {
		for _, v := range c.Row(u) {
			if int(v) > u && !used[u] && !used[v] {
				used[u], used[v] = true, true
				cover = append(cover, u, int(v))
			}
		}
	}
	sort.Ints(cover)
	return cover
}
