package core

import (
	"sync/atomic"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// countingRule counts the component solves of one run.
type countingRule struct {
	floodRule
	solves *atomic.Int64
}

func (r countingRule) solve(sub *graph.CSR, target []int) []int {
	r.solves.Add(1)
	return r.floodRule.solve(sub, target)
}

// memoInput is two copies of a 6×6 grid and a 4×5 grid: three residual
// components at R1 = R2 = 3, two of them of equal size, so a memo keyed
// by anything coarser than the members mixes components up.
func memoInput() *graph.CSR {
	return graph.DisjointUnion(graph.DisjointUnion(gen.Grid(6, 6), gen.Grid(6, 6)), gen.Grid(4, 5)).Freeze()
}

// hasEqualSizes reports whether two components have the same size.
func hasEqualSizes(comps [][]int) bool {
	seen := map[int]bool{}
	for _, c := range comps {
		if seen[len(c)] {
			return true
		}
		seen[len(c)] = true
	}
	return false
}

// TestFloodSolvesEachComponentOnce pins the run's solve memo: a run
// solves each residual component once, however many members it has, and
// still returns the centralized driver's set.
func TestFloodSolvesEachComponentOnce(t *testing.T) {
	c := memoInput()
	p, err := Params{R1: 3, R2: 3}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("alg1", func(t *testing.T) {
		want, err := Alg1CSR(c, p, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !hasEqualSizes(want.Components) {
			t.Fatalf("input has no two equal-sized residual components: %v", want.Components)
		}
		var solves atomic.Int64
		got, _, err := runFlood(c, nil, countingRule{mdsFlood{p}, &solves}, p.GatherRadius()+2)
		if err != nil {
			t.Fatal(err)
		}
		if n := solves.Load(); n != int64(len(want.Components)) {
			t.Errorf("%d solves, want one per residual component (%d)", n, len(want.Components))
		}
		if !graph.EqualSets(got, want.S) || !mds.IsDominatingSetCSR(c, got) {
			t.Errorf("process %v, centralized %v", got, want.S)
		}
	})
	t.Run("mvc-alg1", func(t *testing.T) {
		want, err := MVCAlg1(c, p, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !hasEqualSizes(want.Components) {
			t.Fatalf("input has no two equal-sized residual components: %v", want.Components)
		}
		var solves atomic.Int64
		got, _, err := runFlood(c, nil, countingRule{mvcFlood{p}, &solves}, MVCAlg1GatherRounds(p))
		if err != nil {
			t.Fatal(err)
		}
		if n := solves.Load(); n != int64(len(want.Components)) {
			t.Errorf("%d solves, want one per residual component (%d)", n, len(want.Components))
		}
		if !graph.EqualSets(got, want.S) || !mds.IsVertexCover(c, got) {
			t.Errorf("process %v, centralized %v", got, want.S)
		}
	})
}
