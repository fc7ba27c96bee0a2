package core

// The spec oracle for Alg1: Algorithm 1 run step by step on the mutable
// adjacency representation, with the original adjacency-list greedy
// fallback. The staged CSR driver (Alg1CSR) is equivalence-tested against
// it in pipeline_test.go, and BenchmarkAlg1Sequential times it next to
// the driver.

import (
	"math/rand"
	"sort"
	"testing"

	"localmds/internal/cuts"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// Alg1Sequential is the original monolithic implementation of Algorithm 1,
// running every step on the mutable adjacency representation. It is kept
// verbatim as the reference the staged CSR pipeline (Alg1 / Alg1Pipeline)
// is equivalence-tested against: both must produce identical S, X, I, U,
// Active, and Components for every input.
func Alg1Sequential(g *graph.Graph, p Params) (*Alg1Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return &Alg1Result{}, nil
	}

	reduced, active := g.TwinReduction()

	// Steps 2 and 3 on the reduced graph.
	xLocal := cuts.LocalOneCuts(reduced, p.R1)
	iLocal := cuts.LocallyInterestingVertices(reduced, p.R2)
	s1Local := graph.SortedUnion(xLocal, iLocal)

	// Undominated vertices W and the saturated set U, inside Ĝ.
	dominated := make([]bool, reduced.N())
	for _, v := range s1Local {
		for _, u := range reduced.Ball(v, 1) {
			dominated[u] = true
		}
	}
	inS1 := make([]bool, reduced.N())
	for _, v := range s1Local {
		inS1[v] = true
	}
	var uLocal []int
	var rest []int // vertices of Ĝ - (X ∪ I ∪ U)
	for v := 0; v < reduced.N(); v++ {
		if inS1[v] {
			continue
		}
		if dominated[v] && allDominated(reduced, v, dominated) {
			uLocal = append(uLocal, v)
		} else {
			rest = append(rest, v)
		}
	}

	res := &Alg1Result{
		X:      mapBack(xLocal, active),
		I:      mapBack(iLocal, active),
		U:      mapBack(uLocal, active),
		Active: append([]int(nil), active...),
	}
	sol := append([]int(nil), s1Local...)

	// Step 4: per-component brute force on the undominated vertices.
	for _, comp := range reduced.ComponentsOfSubset(rest) {
		var target []int
		for _, v := range comp {
			if !dominated[v] {
				target = append(target, v)
			}
		}
		if len(target) == 0 {
			continue
		}
		res.Components = append(res.Components, mapBack(comp, active))
		sub, idx := reduced.Induced(comp)
		if d := sub.Diameter(); d > res.MaxComponentDiameter {
			res.MaxComponentDiameter = d
		}
		localTarget := relabel(target, idx)
		var chosen []int
		if len(comp) <= p.MaxBruteComponent {
			chosen, err = mds.ExactBDominating(sub.Freeze(), localTarget, mds.ExactOptions{MaxNodes: BruteNodeBudget})
			if err != nil {
				// Node budget exhausted (the only reachable error: the
				// component is under every vertex cap): greedy fallback,
				// deterministically — node counts are input-determined.
				res.BruteFallbacks++
				chosen = greedyBDominating(sub, localTarget)
			}
		} else {
			res.BruteFallbacks++
			chosen = greedyBDominating(sub, localTarget)
		}
		for _, v := range chosen {
			sol = append(sol, idx[v])
		}
	}

	res.S = mapBack(graph.Dedup(sol), active)
	res.RoundsEstimate = p.GatherRadius() + 2 + res.MaxComponentDiameter + 1
	return res, nil
}

// allDominated reports whether every neighbor of v (and v itself) is
// dominated.
func allDominated(g *graph.Graph, v int, dominated []bool) bool {
	if !dominated[v] {
		return false
	}
	for _, u := range g.Neighbors(v) {
		if !dominated[u] {
			return false
		}
	}
	return true
}

// relabel converts component-graph labels: target holds reduced-graph
// indices, idx maps component-local index -> reduced index.
func relabel(target, idx []int) []int {
	pos := make(map[int]int, len(idx))
	for i, v := range idx {
		pos[v] = i
	}
	out := make([]int, 0, len(target))
	for _, v := range target {
		out = append(out, pos[v])
	}
	sort.Ints(out)
	return out
}

// greedyBDominating is the fallback solver for oversized components: the
// classical greedy cover of the target set.
func greedyBDominating(g *graph.Graph, target []int) []int {
	need := make(map[int]bool, len(target))
	for _, v := range target {
		need[v] = true
	}
	var sol []int
	for len(need) > 0 {
		bestV, bestGain := -1, 0
		for v := 0; v < g.N(); v++ {
			gain := 0
			for _, u := range g.Ball(v, 1) {
				if need[u] {
					gain++
				}
			}
			if gain > bestGain {
				bestV, bestGain = v, gain
			}
		}
		if bestV < 0 {
			break
		}
		sol = append(sol, bestV)
		for _, u := range g.Ball(bestV, 1) {
			delete(need, u)
		}
	}
	sort.Ints(sol)
	return sol
}

// BenchmarkAlg1Sequential times the oracle on the shapes of the root
// package's BenchmarkAlg1 (same generators and seed), whose /pipeline rows
// time Alg1 on them.
func BenchmarkAlg1Sequential(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	multi := gen.Grid(7, 7)
	for i := 0; i < 5; i++ {
		multi = graph.DisjointUnion(multi, gen.Grid(7, 7))
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(12, 12)},
		{"minor-free", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 240, T: 5}, rng)},
		{"multi-component", multi},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/legacy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Alg1Sequential(tc.g, PracticalParams()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
