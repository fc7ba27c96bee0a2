package mds

import (
	"fmt"
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

func randomMDSGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func randomTarget(n int, rng *rand.Rand) []int {
	var target []int
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			target = append(target, v)
		}
	}
	return target
}

func TestExactBDominatingCSRMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		g := randomMDSGraph(14, 0.15, rng)
		c := g.Freeze()
		target := randomTarget(g.N(), rng)
		want, errWant := legacyBDominating(g, target)
		got, errGot := ExactBDominating(c, target, ExactOptions{})
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("trial %d: err mismatch: %v vs %v", trial, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if !graph.EqualSets(got, want) {
			t.Fatalf("trial %d: CSR = %v, legacy = %v (target %v)", trial, got, want, target)
		}
	}
}

func TestExactBDominatingCSRTreewidth2Dispatch(t *testing.T) {
	// A long cycle has treewidth 2 and exceeds nothing; the entry point and
	// the adjacency-list dispatch must both take the DP and agree.
	n := 30
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	target := make([]int, n)
	for i := range target {
		target[i] = i
	}
	want, err := legacyBDominating(g, target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExactBDominating(g.Freeze(), target, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualSets(got, want) {
		t.Fatalf("CSR = %v, legacy = %v", got, want)
	}
}

// TestGreedyBDominatingCSRMatchesGeneric checks the lazy greedy against
// the adjacency-list rescan pick for pick: on random graphs with random
// B-domination targets, on grids (where gains tie everywhere) and on a
// ding instance, with every vertex, a random subset, no vertex and a
// duplicated list as targets.
func TestGreedyBDominatingCSRMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	check := func(name string, g *graph.Graph, target []int) {
		t.Helper()
		c := g.Freeze()
		covers := make([][]int, g.N())
		inB := make([]bool, g.N())
		for _, v := range target {
			inB[v] = true
		}
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Ball(v, 1) {
				if inB[u] {
					covers[v] = append(covers[v], u)
				}
			}
		}
		want := greedyBDominatingGeneric(g, target, covers)
		got := GreedyBDominatingCSR(c, target)
		if !graph.EqualSets(got, want) || len(got) != len(want) {
			t.Fatalf("%s: CSR greedy = %v, generic = %v (target %v)", name, got, want, target)
		}
		if len(target) > 0 && !DominatesSet(g, got, target) {
			t.Fatalf("%s: greedy CSR result not dominating", name)
		}
	}
	for trial := 0; trial < 25; trial++ {
		g := randomMDSGraph(20, 0.12, rng)
		check(fmt.Sprintf("trial %d", trial), g, randomTarget(g.N(), rng))
	}
	graphs := map[string]*graph.Graph{
		"grid1x1":   gen.Grid(1, 1),
		"grid6x6":   gen.Grid(6, 6),
		"grid13x17": gen.Grid(13, 17),
		"grid40x40": gen.Grid(40, 40),
		"ding300":   ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 300, T: 5}, rng),
		"star12":    gen.Star(12),
		"isolated4": graph.New(4),
	}
	for i := 0; i < 30; i++ {
		graphs[fmt.Sprintf("gnp%d", i)] = randomMDSGraph(5+rng.Intn(80), []float64{0.03, 0.08, 0.2}[i%3], rng)
	}
	for name, g := range graphs {
		dup := randomTarget(g.N(), rng)
		for k, target := range [][]int{allVertices(g.N()), randomTarget(g.N(), rng), nil, append(dup, dup...)} {
			check(fmt.Sprintf("%s target %d", name, k), g, target)
		}
	}
}

func TestDominationPredicatesCSRMatchLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		g := randomMDSGraph(16, 0.12, rng)
		c := g.Freeze()
		s := randomTarget(g.N(), rng)
		// Drawn and unused so that every later trial sees the same graphs.
		_ = randomTarget(g.N(), rng)
		if got, want := IsDominatingSetCSR(c, s), IsDominatingSet(g, s); got != want {
			t.Fatalf("IsDominatingSetCSR = %v, want %v (s=%v)", got, want, s)
		}
	}
}
