// Domination predicates and the greedy B-dominating baseline over a frozen
// graph.CSR: Algorithm 1's step-4 fallback and its checks, with their
// state in flat arrays. The exact solvers (mds.go, mvc.go) are CSR-native
// too.
package mds

import (
	"sort"

	"localmds/internal/graph"
)

// IsDominatingSetCSR reports whether s dominates every vertex of c.
func IsDominatingSetCSR(c *graph.CSR, s []int) bool {
	n := c.N()
	dominated := make([]bool, n)
	for _, v := range s {
		if v < 0 || v >= n {
			return false
		}
		dominated[v] = true
		for _, u := range c.Row(v) {
			dominated[u] = true
		}
	}
	for v := 0; v < n; v++ {
		if !dominated[v] {
			return false
		}
	}
	return true
}

// GreedyBDominatingCSR returns the classical greedy cover of target over
// the CSR view: repeatedly pick the vertex dominating the most
// still-needed target vertices (smallest index on ties), until target is
// covered. It runs Minoux's lazy greedy: gains only fall, so a max-heap
// of possibly stale gains keyed by (gain, −index) is exact at its top
// once the top's recomputed gain still equals its key. It picks exactly
// the vertices a full rescan per pick picks, in O((n + m) log n) instead
// of O(|S|·m).
func GreedyBDominatingCSR(c *graph.CSR, target []int) []int {
	n := c.N()
	need := make([]bool, n)
	remaining := 0
	for _, v := range target {
		if !need[v] {
			need[v] = true
			remaining++
		}
	}
	h := gainHeap{gain: make([]int32, n)}
	for v := 0; v < n; v++ {
		if g := closedGain(c, v, need); g > 0 {
			h.gain[v] = g
			h.order = append(h.order, int32(v))
		}
	}
	for i := len(h.order)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var sol []int
	for remaining > 0 {
		v := int(h.order[0])
		if g := closedGain(c, v, need); g != h.gain[v] {
			h.gain[v] = g
			if g == 0 {
				h.pop()
			} else {
				h.down(0)
			}
			continue
		}
		h.pop()
		sol = append(sol, v)
		if need[v] {
			need[v] = false
			remaining--
		}
		for _, u := range c.Row(v) {
			if need[u] {
				need[u] = false
				remaining--
			}
		}
	}
	sort.Ints(sol)
	return sol
}

// closedGain returns |N[v] ∩ need|.
func closedGain(c *graph.CSR, v int, need []bool) int32 {
	var g int32
	if need[v] {
		g++
	}
	for _, u := range c.Row(v) {
		if need[u] {
			g++
		}
	}
	return g
}

// gainHeap is a binary max-heap of vertices ordered by (gain, −index).
type gainHeap struct {
	order []int32 // heap-ordered vertices
	gain  []int32 // per vertex: its key's gain
}

// above reports whether vertex a's key outranks vertex b's.
func (h *gainHeap) above(a, b int32) bool {
	return h.gain[a] > h.gain[b] || (h.gain[a] == h.gain[b] && a < b)
}

// down restores the heap order below position i.
func (h *gainHeap) down(i int) {
	for {
		best := i
		for _, k := range [2]int{2*i + 1, 2*i + 2} {
			if k < len(h.order) && h.above(h.order[k], h.order[best]) {
				best = k
			}
		}
		if best == i {
			return
		}
		h.order[i], h.order[best] = h.order[best], h.order[i]
		i = best
	}
}

// pop removes the top vertex.
func (h *gainHeap) pop() {
	last := len(h.order) - 1
	h.order[0] = h.order[last]
	h.order = h.order[:last]
	h.down(0)
}
