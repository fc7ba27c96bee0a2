// The pre-bitset branch-and-bound solver, kept verbatim as an unexported
// reference implementation. It is the adjacency-list search that shipped
// before the word-packed engine in bitset.go replaced it on the production
// path: per-node `dominated []bool` allocation, O(n·deg) residual rescans,
// and a per-node sort.Slice. The differential tests (bitset_test.go) and
// the before/after benchmarks (solver_bench_test.go) run it next to the
// engine; nothing else should.
package mds

import (
	"math"
	"sort"

	"localmds/internal/graph"
)

// referenceBDominating runs the old branch-and-bound search on g and
// target, bypassing the forest/treewidth dispatch and the vertex cap. The
// caller is responsible for keeping instances small: the search is
// exponential with only a greedy upper bound and a max-cover lower bound.
func referenceBDominating(g *graph.Graph, target []int) []int {
	target = graph.Dedup(target)
	if len(target) == 0 {
		return nil
	}
	s := newBnbState(g, target)
	s.search(nil)
	out := append([]int(nil), s.best...)
	sort.Ints(out)
	return out
}

// bnbState carries the reference branch-and-bound search for B-dominating
// sets.
type bnbState struct {
	g       *graph.Graph
	inB     []bool
	covers  [][]int // covers[v]: target vertices dominated by picking v
	best    []int
	bestLen int
}

func newBnbState(g *graph.Graph, target []int) *bnbState {
	inB := make([]bool, g.N())
	for _, v := range target {
		inB[v] = true
	}
	covers := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Ball(v, 1) {
			if inB[u] {
				covers[v] = append(covers[v], u)
			}
		}
	}
	// Greedy solution seeds the upper bound.
	greedy := greedyBDominatingGeneric(g, target, covers)
	return &bnbState{g: g, inB: inB, covers: covers, best: greedy, bestLen: len(greedy)}
}

// search extends the current partial solution; chosen is the picked set.
func (s *bnbState) search(chosen []int) {
	if len(chosen) >= s.bestLen {
		return
	}
	dominated := make([]bool, s.g.N())
	for _, v := range chosen {
		for _, u := range s.covers[v] {
			dominated[u] = true
		}
	}
	// Find the undominated target vertex with the fewest dominators: the
	// strongest branching point.
	pick, pickDeg := -1, math.MaxInt
	remaining := 0
	maxCover := 0
	for v := 0; v < s.g.N(); v++ {
		if !s.inB[v] || dominated[v] {
			continue
		}
		remaining++
		d := s.g.Degree(v) + 1
		if d < pickDeg {
			pick, pickDeg = v, d
		}
	}
	if pick < 0 {
		s.best = append(s.best[:0], chosen...)
		s.bestLen = len(chosen)
		return
	}
	// Lower bound: every new pick dominates at most maxCover *still
	// undominated* targets. Computing the residual coverage per candidate
	// is linear in the adjacency size and prunes far better than the
	// static bound, especially on grids.
	for v := 0; v < s.g.N(); v++ {
		c := 0
		for _, u := range s.covers[v] {
			if !dominated[u] {
				c++
			}
		}
		if c > maxCover {
			maxCover = c
		}
	}
	if maxCover == 0 {
		return // unreachable: every target vertex dominates itself
	}
	lb := len(chosen) + (remaining+maxCover-1)/maxCover
	if lb >= s.bestLen {
		return
	}
	// Branch on the dominators of pick, most-covering first.
	cands := append([]int(nil), s.g.Ball(pick, 1)...)
	sort.Slice(cands, func(i, j int) bool {
		return len(s.covers[cands[i]]) > len(s.covers[cands[j]])
	})
	for _, v := range cands {
		s.search(append(chosen, v))
	}
}

// greedyBDominatingGeneric is the adjacency-list greedy that GreedyMDS ran
// before it became GreedyBDominatingCSR: the rescan the reference search
// seeds its bound with, and an oracle for the CSR greedy.
func greedyBDominatingGeneric(g *graph.Graph, target []int, covers [][]int) []int {
	need := make([]bool, g.N())
	remaining := 0
	for _, v := range target {
		if !need[v] {
			need[v] = true
			remaining++
		}
	}
	var sol []int
	for remaining > 0 {
		bestV, bestGain := -1, 0
		for v := 0; v < g.N(); v++ {
			gain := 0
			for _, u := range covers[v] {
				if need[u] {
					gain++
				}
			}
			if gain > bestGain {
				bestV, bestGain = v, gain
			}
		}
		if bestV < 0 {
			break // isolated unreachable targets cannot occur: v covers itself
		}
		sol = append(sol, bestV)
		for _, u := range covers[bestV] {
			if need[u] {
				need[u] = false
				remaining--
			}
		}
	}
	sort.Ints(sol)
	return sol
}
