package mds

import (
	"math/rand"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// engineBDominating runs the bitset engine directly (no width-2 DP, no
// cap), mirroring referenceBDominating for the differential
// tests.
func engineBDominating(t *testing.T, g *graph.Graph, target []int) []int {
	t.Helper()
	target = graph.Dedup(target)
	if len(target) == 0 {
		return nil
	}
	sol, err := newEngine(g.Freeze(), target).solve(ExactOptions{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return sol
}

// TestEngineMatchesReference cross-checks the bitset engine against the
// old adjacency-list branch and bound on random graphs and random targets:
// identical optimum sizes, and the engine's set must actually dominate.
func TestEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(16)
		p := []float64{0.1, 0.2, 0.35}[trial%3]
		g := randomMDSGraph(n, p, rng)
		target := randomTarget(n, rng)
		want := referenceBDominating(g, target)
		got := engineBDominating(t, g, target)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d p=%.2f): engine %v (%d) vs reference %v (%d), target %v",
				trial, n, p, got, len(got), want, len(want), target)
		}
		if len(target) > 0 && !DominatesSet(g, got, target) {
			t.Fatalf("trial %d: engine set %v does not dominate %v", trial, got, target)
		}
	}
}

// TestEngineMatchesTW2DP cross-checks the engine against the unbounded
// width-2 tree-decomposition DP on the treewidth-<=2 workload classes
// (where the production dispatch prefers the DP and the engine is normally
// never reached).
func TestEngineMatchesTW2DP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.RandomCactus(24, rng)
		case 1:
			g = gen.MaximalOuterplanar(24, rng)
		default:
			g = gen.Cycle(24)
		}
		target := randomTarget(g.N(), rng)
		if len(target) == 0 {
			target = []int{0}
		}
		required := make([]bool, g.N())
		for _, v := range target {
			required[v] = true
		}
		dp, err := exactTW2BDominating(g, required)
		if err != nil {
			t.Fatalf("trial %d: tw2 DP declined a width-2 instance: %v", trial, err)
		}
		got := engineBDominating(t, g, target)
		if len(got) != len(dp) {
			t.Fatalf("trial %d: engine %d vs tw2 DP %d (target %v)", trial, len(got), len(dp), target)
		}
	}
}

// TestEngineMultiComponent exercises disconnected graphs with targets
// spread across components, concentrated in a single component, and
// pairwise non-adjacent ("disconnected target") sets.
func TestEngineMultiComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		g := graph.DisjointUnion(randomMDSGraph(10, 0.25, rng), gen.Grid(3, 4))
		g = graph.DisjointUnion(g, gen.Path(5))
		var target []int
		switch trial % 3 {
		case 0: // spread over all components
			target = randomTarget(g.N(), rng)
		case 1: // one component only
			for v := 10; v < 22; v++ {
				target = append(target, v)
			}
		default: // a 2-packing: pairwise far apart, no shared dominators
			target = TwoPacking(g)
		}
		if len(target) == 0 {
			target = []int{0, g.N() - 1}
		}
		want := referenceBDominating(g, target)
		got := engineBDominating(t, g, target)
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine %d vs reference %d (target %v)", trial, len(got), len(want), target)
		}
		if !DominatesSet(g, got, target) {
			t.Fatalf("trial %d: engine set %v does not dominate %v", trial, got, target)
		}
	}
}

// TestEngineEntryPointsIdenticalSets asserts ExactBDominating returns
// byte-identical sorted sets on two separately frozen copies of a graph
// and on a repeated run: it is one deterministic sequential engine.
func TestEngineEntryPointsIdenticalSets(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		g := randomMDSGraph(9+rng.Intn(12), 0.2, rng)
		if trial%4 == 0 {
			g = graph.DisjointUnion(g, gen.Grid(3, 3))
		}
		target := randomTarget(g.N(), rng)
		a, errA := ExactBDominating(g.Freeze(), target, ExactOptions{})
		b, errB := ExactBDominating(g.Clone().Freeze(), target, ExactOptions{})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: err mismatch: %v vs %v", trial, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !graph.EqualSets(a, b) {
			t.Fatalf("trial %d: first copy %v vs second copy %v (target %v)", trial, a, b, target)
		}
		// And a repeated run is byte-identical (deterministic engine).
		a2, _ := ExactBDominating(g.Freeze(), target, ExactOptions{})
		if !graph.EqualSets(a, a2) {
			t.Fatalf("trial %d: non-deterministic: %v vs %v", trial, a, a2)
		}
	}
}

// TestEngineGridKnownValues pins the engine to the published grid
// domination numbers gamma(n,n) = floor((n+2)^2/5) - 4 at the sizes the
// old solver could not reach in test time.
func TestEngineGridKnownValues(t *testing.T) {
	want := map[int]int{7: 12, 8: 16, 9: 20}
	for side, opt := range want {
		g := gen.Grid(side, side)
		sol, err := ExactMDS(g)
		if err != nil {
			t.Fatalf("grid %dx%d: %v", side, side, err)
		}
		if !IsDominatingSet(g, sol) {
			t.Fatalf("grid %dx%d: not dominating", side, side)
		}
		if len(sol) != opt {
			t.Errorf("grid %dx%d: |S| = %d, want %d", side, side, len(sol), opt)
		}
	}
}

// TestEngineNodeBudget asserts an exhausted budget fails loudly and
// reproducibly, and that a sufficient budget changes nothing.
func TestEngineNodeBudget(t *testing.T) {
	g := gen.Grid(8, 8)
	target := allVertices(g)
	if _, err := newEngine(g.Freeze(), target).solve(ExactOptions{MaxNodes: 25}); err == nil {
		t.Fatal("25-node budget on an 8x8 grid should be exhausted")
	}
	e1 := newEngine(g.Freeze(), target)
	_, err1 := e1.solve(ExactOptions{MaxNodes: 25})
	e2 := newEngine(g.Freeze(), target)
	_, err2 := e2.solve(ExactOptions{MaxNodes: 25})
	if (err1 == nil) != (err2 == nil) || e1.nodes != e2.nodes {
		t.Fatalf("budgeted failure not deterministic: %v/%d vs %v/%d", err1, e1.nodes, err2, e2.nodes)
	}
	want, err := newEngine(g.Freeze(), target).solve(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := newEngine(g.Freeze(), target).solve(ExactOptions{MaxNodes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualSets(got, want) {
		t.Fatalf("roomy budget changed the result: %v vs %v", got, want)
	}
}

// TestEngineForcedAndSubsumedRoots covers the reduction rules' edge
// cases: isolated targets force themselves, leaves force their support,
// and a root whose reductions solve the instance outright never searches.
func TestEngineForcedAndSubsumedRoots(t *testing.T) {
	// Star: center subsumes every leaf; reductions alone solve it.
	star := gen.Star(9)
	e := newEngine(star.Freeze(), allVertices(star))
	sol, err := e.solve(ExactOptions{})
	if err != nil || len(sol) != 1 || sol[0] != 0 {
		t.Fatalf("star: %v, %v (want [0])", sol, err)
	}
	if e.nodes != 0 {
		t.Errorf("star solved with %d search nodes, want 0 (root reductions)", e.nodes)
	}
	// Isolated target vertices are their own forced dominators.
	iso := graph.New(4)
	iso.AddEdge(0, 1)
	sol, err = newEngine(iso.Freeze(), []int{2, 3}).solve(ExactOptions{})
	if err != nil || !graph.EqualSets(sol, []int{2, 3}) {
		t.Fatalf("isolated targets: %v, %v (want [2 3])", sol, err)
	}
}
