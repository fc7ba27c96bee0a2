package core

import (
	"sort"

	"localmds/internal/graph"
)

// GreedyDistributed simulates the classic distributed greedy MDS baseline
// the paper's introduction contrasts with: in each synchronous phase, a
// vertex joins the dominating set when its (span, identifier) pair is
// lexicographically maximal within distance 2, where span counts the
// still-undominated vertices in its closed neighborhood. Distance-2
// maximality means two simultaneous joiners never compete for the same
// undominated vertex, so every phase makes progress and the output tracks
// the sequential greedy (ln Δ ratio).
//
// It returns the set and the number of phases. Each phase costs O(1) LOCAL
// rounds, but the number of phases is not constant (up to Θ(n) on paths —
// see TestGreedyDistributedPathPhases), and detecting global termination
// takes Ω(diameter) rounds; this is exactly the gap the paper's
// constant-round algorithms close on K_{2,t}-minor-free classes, which is
// why this baseline appears in the experiments as a phase-count comparison
// rather than as a LOCAL process.
func GreedyDistributed(c *graph.CSR) ([]int, int) {
	n := c.N()
	a := graph.NewArena()
	dominated := make([]bool, n)
	inSet := make([]bool, n)
	phases := 0
	for {
		span := make([]int, n)
		remaining := 0
		for v := 0; v < n; v++ {
			if !dominated[v] {
				span[v]++
				remaining++
			}
			for _, u := range c.Row(v) {
				if !dominated[u] {
					span[v]++
				}
			}
		}
		if remaining == 0 {
			break
		}
		phases++
		var joiners []int
		for v := 0; v < n; v++ {
			if span[v] == 0 {
				continue
			}
			best := true
			for _, w := range c.MarkBall(v, -1, 2, a) {
				u := int(w)
				if u == v {
					continue
				}
				if span[u] > span[v] || (span[u] == span[v] && u > v) {
					best = false
					break
				}
			}
			if best {
				joiners = append(joiners, v)
			}
		}
		if len(joiners) == 0 {
			// Cannot happen: the global maximum (span, id) vertex is
			// always locally maximal. Guard against livelock regardless.
			break
		}
		for _, v := range joiners {
			inSet[v], dominated[v] = true, true
			for _, u := range c.Row(v) {
				dominated[u] = true
			}
		}
	}
	var s []int
	for v, in := range inSet {
		if in {
			s = append(s, v)
		}
	}
	sort.Ints(s)
	return s, phases
}
