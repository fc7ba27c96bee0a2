package core

import "sort"

// Alg1Result reports the outcome and diagnostics of Algorithm 1. It
// marshals to JSON (the mdsd service serves it verbatim inside solve
// responses); every field except the StageStats timings is deterministic
// for a fixed input and params.
type Alg1Result struct {
	// S is the returned dominating set, in original vertex labels.
	S []int `json:"s"`
	// X are the vertices of R1-local minimal 1-cuts of the twin-reduced
	// graph; I the R2-interesting vertices of R2-local minimal 2-cuts;
	// U the dominated vertices with no undominated neighbor (all in
	// original labels, all subsets of the twin representatives).
	X []int `json:"x"`
	I []int `json:"i"`
	U []int `json:"u"`
	// Active lists the twin-class representatives the algorithm ran on.
	Active []int `json:"active"`
	// Components are the connected components of Ĝ - (X ∪ I ∪ U) that the
	// brute-force step solved (original labels).
	Components [][]int `json:"components,omitempty"`
	// MaxComponentDiameter is the largest diameter among Components,
	// measured inside the component subgraph — the Lemma 4.2 quantity.
	MaxComponentDiameter int `json:"max_component_diameter"`
	// RoundsEstimate is the number of LOCAL rounds the distributed
	// implementation needs on this instance: the gather phase plus the
	// component flooding phase (see RunAlg1, which measures it for real).
	RoundsEstimate int `json:"rounds_estimate"`
	// BruteFallbacks counts components solved greedily instead of
	// exactly: those that exceeded MaxBruteComponent, and those under it
	// whose exact search ran out of BruteNodeBudget.
	BruteFallbacks int `json:"brute_fallbacks"`
	// StageStats records per-stage wall time, allocation, and size
	// diagnostics of the pipeline run (TwinReduce → Cuts → Partition →
	// ComponentSolve → Stitch). An empty input leaves it nil.
	StageStats StageStats `json:"stage_stats,omitempty"`
}

// mapBack converts reduced-graph indices to original labels.
func mapBack(local []int, active []int) []int {
	out := make([]int, 0, len(local))
	for _, v := range local {
		out = append(out, active[v])
	}
	sort.Ints(out)
	return out
}
