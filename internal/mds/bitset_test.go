package mds

import (
	"math/rand"
	"testing"

	"localmds/internal/ding"
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
			target = TwoPacking(g.Freeze())
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
		sol, err := ExactMDS(g.Freeze(), ExactOptions{})
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
	target := allVertices(g.N())
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
	e := newEngine(star.Freeze(), allVertices(star.N()))
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

// TestExactMDSNodeCountPinned pins the engine's search node for node: on
// each instance the search visits exactly the pinned number of nodes, a
// budget of that many succeeds with the pinned set, and one node less
// fails. The instances span the engine's mask widths (at most 64, 128
// and 512 targets), so any change to the branching order, the
// tie-breaks or the bounds shows here.
func TestExactMDSNodeCountPinned(t *testing.T) {
	dingRng := rand.New(rand.NewSource(12))
	ding50 := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 50, T: 5}, dingRng)
	ding100 := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 100, T: 5}, dingRng)
	ding300 := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 300, T: 5}, dingRng)
	grid9 := gen.Grid(9, 9)
	var grid9Half []int
	for v := 0; v < grid9.N(); v += 2 {
		grid9Half = append(grid9Half, v)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		target []int // nil: every vertex
		nodes  int64
		set    []int
	}{
		{"grid5x5", gen.Grid(5, 5), nil, 35,
			[]int{1, 8, 9, 10, 17, 21, 24}},
		{"grid6x6", gen.Grid(6, 6), nil, 234,
			[]int{1, 4, 8, 12, 17, 21, 24, 25, 29, 33}},
		{"grid7x7", gen.Grid(7, 7), nil, 118,
			[]int{1, 5, 10, 14, 20, 23, 25, 28, 34, 38, 43, 47}},
		{"grid8x8", gen.Grid(8, 8), nil, 447,
			[]int{1, 6, 11, 12, 16, 23, 26, 29, 33, 38, 43, 44, 48, 55, 58, 61}},
		{"grid9x9", grid9, nil, 7154,
			[]int{1, 5, 7, 12, 18, 24, 26, 29, 31, 38, 43, 45, 50, 57, 62, 64, 69, 73, 76, 79}},
		{"grid9x9/even", grid9, grid9Half, 80,
			[]int{1, 7, 13, 25, 27, 29, 41, 47, 53, 59, 63, 75, 79}},
		{"ding50", ding50, nil, 50,
			[]int{0, 2, 7, 10, 13, 15, 18, 23, 26, 27, 30, 33, 39, 43, 48, 49}},
		{"ding100", ding100, nil, 0,
			[]int{3, 5, 7, 8, 10, 11, 14, 17, 22, 25, 28, 29, 33, 38, 39, 47, 48, 51, 55, 58, 60, 65, 67, 70, 80, 81, 86, 90, 93, 94, 101, 104}},
		{"ding300", ding300, nil, 3949,
			[]int{0, 2, 5, 8, 13, 14, 15, 17, 23, 26, 32, 35, 44, 50, 51, 56, 59, 61, 70, 73, 74, 79, 80, 83, 86, 91, 92, 94, 98, 101, 105, 107, 110, 117, 124, 126, 130, 131, 135, 137, 141, 144, 149, 155, 156, 163, 166, 170, 171, 174, 179, 182, 183, 191, 194, 200, 201, 207, 210, 214, 215, 225, 228, 229, 236, 239, 244, 247, 250, 254, 257, 259, 268, 271, 275, 279, 285, 290, 293, 294}},
	}
	for _, tc := range cases {
		target := tc.target
		if target == nil {
			target = allVertices(tc.g.N())
		}
		e := newEngine(tc.g.Freeze(), target)
		got, err := e.solve(ExactOptions{})
		if err != nil || e.nodes != tc.nodes || !graph.EqualSets(got, tc.set) {
			t.Errorf("%s: %d nodes, set %v, err %v; want %d nodes, set %v", tc.name, e.nodes, got, err, tc.nodes, tc.set)
		}
		if got, err := newEngine(tc.g.Freeze(), target).solve(ExactOptions{MaxNodes: tc.nodes}); err != nil || !graph.EqualSets(got, tc.set) {
			t.Errorf("%s, budget %d: set %v, err %v; want %v", tc.name, tc.nodes, got, err, tc.set)
		}
		if tc.nodes > 0 {
			if _, err := newEngine(tc.g.Freeze(), target).solve(ExactOptions{MaxNodes: tc.nodes - 1}); err == nil {
				t.Errorf("%s: budget %d succeeded, want the search to need %d nodes", tc.name, tc.nodes-1, tc.nodes)
			}
		}
	}
}
