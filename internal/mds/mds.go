// Package mds provides centralized (sequential) solvers for Minimum
// Dominating Set and Minimum Vertex Cover, plus classic greedy baselines
// and verification predicates. The exact solvers run on a frozen
// graph.CSR: one width-2 elimination DP (tw2dp.go) for dominating set,
// B-domination and vertex cover, then branch and bound within a vertex
// cap. They serve the paper's brute-force step (Algorithm 1, step 4) and
// compute OPT for approximation-ratio measurements.
package mds

import (
	"fmt"

	"localmds/internal/graph"
)

// IsVertexCover reports whether s touches every edge of c.
func IsVertexCover(c *graph.CSR, s []int) bool {
	in := make([]bool, c.N())
	for _, v := range s {
		if v < 0 || v >= c.N() {
			return false
		}
		in[v] = true
	}
	for u := 0; u < c.N(); u++ {
		if in[u] {
			continue
		}
		for _, v := range c.Row(u) {
			if !in[v] {
				return false
			}
		}
	}
	return true
}

// MaxExactMDSVertices caps the exact solver's branch-and-bound path
// (treewidth-<=2 graphs, forests included, go to the width-2 DP first and
// never hit it). Branch and bound is exponential in the worst case; the
// bitset engine keeps its worst observed cases — grids — to seconds up to
// roughly this size, where the old adjacency-list search was capped at 160
// (see EXPERIMENTS.md "Exact solver").
const MaxExactMDSVertices = 512

// ExactOptions tunes the exact solvers' branch and bound (the MDS engine
// and ExactMVC's search). The zero value is an unbounded search.
type ExactOptions struct {
	// MaxNodes bounds the number of search-tree nodes (0: unbounded). An
	// exhausted budget returns an error instead of a possibly suboptimal
	// set; callers use it to keep best-effort OPT probes from stalling.
	// The node count is deterministic, so a budgeted failure is
	// reproducible.
	MaxNodes int64
}

// ExactMDS returns a minimum dominating set of c: ExactBDominating with
// every vertex a target.
func ExactMDS(c *graph.CSR, opt ExactOptions) ([]int, error) {
	return ExactBDominating(c, allVertices(c.N()), opt)
}

// ExactBDominating returns a minimum set S ⊆ V(c) dominating every vertex
// of target (MDS(G, B) in the paper's notation, B = target). Treewidth-<=2
// inputs go to the width-2 elimination DP, with no size limit; the rest
// run the bitset branch-and-bound engine, which requires c.N() <=
// MaxExactMDSVertices and searches candidates in N[target] only, without
// loss of optimality.
func ExactBDominating(c *graph.CSR, target []int, opt ExactOptions) ([]int, error) {
	target = graph.Dedup(target)
	if len(target) == 0 {
		return nil, nil
	}
	n := c.N()
	required := make([]bool, n)
	for _, v := range target {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("mds: target vertex %d out of range", v)
		}
		required[v] = true
	}
	if sol, err := solveTW2(c, mdsRule{required}); err == nil {
		return sol, nil
	}
	if n > MaxExactMDSVertices {
		return nil, fmt.Errorf("mds: graph has %d vertices, exact solver capped at %d", n, MaxExactMDSVertices)
	}
	return newEngine(c, target).solve(opt)
}

// GreedyMDS returns the classical greedy dominating set (repeatedly pick
// the vertex covering the most undominated vertices), an
// (ln Δ + 1)-approximation and the baseline used in the experiments:
// GreedyBDominatingCSR with every vertex a target.
func GreedyMDS(c *graph.CSR) []int {
	return GreedyBDominatingCSR(c, allVertices(c.N()))
}

// TwoPacking returns a maximal 2-packing: vertices pairwise at distance at
// least 3. Its size lower-bounds MDS(G) (each dominator covers at most one
// packing vertex), giving a cheap OPT lower bound on instances too large
// for the exact solver.
func TwoPacking(c *graph.CSR) []int {
	blocked := make([]bool, c.N())
	a := graph.NewArena()
	var pack []int
	for v := 0; v < c.N(); v++ {
		if blocked[v] {
			continue
		}
		pack = append(pack, v)
		for _, u := range c.MarkBall(v, -1, 2, a) {
			blocked[u] = true
		}
	}
	return pack
}

func allVertices(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
