package mds

import (
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

func TestTW2DecompositionRejectsDense(t *testing.T) {
	if _, err := buildTW2(gen.Complete(5).Freeze()); err == nil {
		t.Error("K5 accepted as treewidth <= 2")
	}
	if _, err := buildTW2(gen.Grid(3, 3).Freeze()); err == nil {
		t.Error("3x3 grid accepted as treewidth <= 2")
	}
}

func TestTW2DecompositionAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []*graph.Graph{
		gen.Cycle(9),
		gen.MaximalOuterplanar(20, rng),
		gen.RandomCactus(30, rng),
		ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: 5}, rng),
	} {
		d, err := buildTW2(g.Freeze())
		if err != nil {
			t.Fatalf("decomposition failed: %v", err)
		}
		if len(d.v) != g.N() {
			t.Errorf("got %d bags for %d vertices", len(d.v), g.N())
		}
		for i, k := range d.nrest {
			if k > 2 {
				t.Errorf("bag %d too large: %v", i, d.rest[i])
			}
		}
	}
}

func TestTW2KnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"C3", gen.Cycle(3), 1},
		{"C6", gen.Cycle(6), 2},
		{"C9", gen.Cycle(9), 3},
		{"C10", gen.Cycle(10), 4},
		{"P5", gen.Path(5), 2},
		{"cliquependants-ish theta", nil, 2}, // set below
	}
	theta, err := gen.Theta([]int{2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests[5].g = theta
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sol, err := tw2MDS(tt.g, nil)
			if err != nil {
				t.Fatalf("tw2: %v", err)
			}
			if !IsDominatingSet(tt.g, sol) {
				t.Fatalf("set %v not dominating", sol)
			}
			if len(sol) != tt.want {
				t.Errorf("|S| = %d, want %d (%v)", len(sol), tt.want, sol)
			}
		})
	}
}

func TestTW2MatchesBnBOnWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		var g *graph.Graph
		switch i % 3 {
		case 0:
			g = gen.RandomCactus(28, rng)
		case 1:
			g = gen.MaximalOuterplanar(22, rng)
		default:
			g = ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 26, T: 5}, rng)
		}
		dp, err := tw2MDS(g, nil)
		if err != nil {
			t.Fatalf("instance %d: tw2: %v", i, err)
		}
		if !IsDominatingSet(g, dp) {
			t.Fatalf("instance %d: not dominating", i)
		}
		bnb, err := ExactBDominating(g.Freeze(), allVerticesForTest(g), ExactOptions{})
		if err != nil {
			t.Fatalf("instance %d: bnb: %v", i, err)
		}
		if len(dp) != len(bnb) {
			t.Errorf("instance %d: tw2 %d vs bnb %d", i, len(dp), len(bnb))
		}
	}
}

func TestTW2LargeInstanceFast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 2000, T: 5}, rng)
	sol, err := ExactMDS(g.Freeze(), ExactOptions{})
	if err != nil {
		t.Fatalf("ExactMDS on n=%d: %v", g.N(), err)
	}
	if !IsDominatingSet(g, sol) {
		t.Fatal("not dominating")
	}
	if len(sol) < len(TwoPacking(g.Freeze())) {
		t.Error("below the 2-packing lower bound: not optimal")
	}
}

func TestTW2LargeOuterplanar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gen.MaximalOuterplanar(500, rng)
	sol, err := ExactMDS(g.Freeze(), ExactOptions{})
	if err != nil {
		t.Fatalf("ExactMDS: %v", err)
	}
	if !IsDominatingSet(g, sol) {
		t.Fatal("not dominating")
	}
}

func TestTW2BDominatingMatchesBnB(t *testing.T) {
	// Compare the B-dominating DP against branch and bound on instances
	// small enough for both, with random target subsets.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		g := gen.RandomCactus(24, rng)
		var target []int
		for v := 0; v < g.N(); v++ {
			if rng.Intn(3) == 0 {
				target = append(target, v)
			}
		}
		if len(target) == 0 {
			target = []int{0}
		}
		required := make([]bool, g.N())
		for _, v := range target {
			required[v] = true
		}
		dp, err := tw2MDS(g, required)
		if err != nil {
			t.Fatalf("instance %d: dp: %v", i, err)
		}
		if !DominatesSet(g, dp, target) {
			t.Fatalf("instance %d: DP set does not dominate the target", i)
		}
		bnb := bnbBDominatingForTest(g, target)
		if len(dp) != len(bnb) {
			t.Errorf("instance %d: dp %d vs bnb %d", i, len(dp), len(bnb))
		}
	}
}

// bnbBDominatingForTest forces the branch-and-bound path.
func bnbBDominatingForTest(g *graph.Graph, target []int) []int {
	s := newBnbState(g, graph.Dedup(target))
	s.search(nil)
	out := append([]int(nil), s.best...)
	return out
}

func TestTW2BDominatingLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen.RandomCactus(800, rng)
	target := []int{0, g.N() / 2, g.N() - 1}
	sol, err := ExactBDominating(g.Freeze(), target, ExactOptions{})
	if err != nil {
		t.Fatalf("ExactBDominating: %v", err)
	}
	if !DominatesSet(g, sol, target) {
		t.Fatal("not dominating the target")
	}
	if len(sol) > len(target) {
		t.Errorf("|S| = %d > |target| = %d (taking targets themselves suffices)", len(sol), len(target))
	}
}

func TestTW2MVCMatchesBnB(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 12; i++ {
		var g *graph.Graph
		switch i % 3 {
		case 0:
			g = gen.RandomCactus(20, rng)
		case 1:
			g = gen.MaximalOuterplanar(20, rng)
		default:
			g = ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 24, T: 5}, rng)
		}
		dp, err := tw2MVC(g)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !IsVertexCover(g.Freeze(), dp) {
			t.Fatalf("instance %d: DP set is not a cover", i)
		}
		bnb := bnbMVCForTest(t, g)
		if len(dp) != len(bnb) {
			t.Errorf("instance %d: dp %d vs bnb %d", i, len(dp), len(bnb))
		}
	}
}

// bnbMVCForTest forces the branch-and-bound MVC path via a wrapper graph
// trick... simpler: replicate the B&B entry point by calling ExactMVC on a
// graph the DP rejects is intrusive; instead compare against the matching
// 2-approximation sandwich and small known values elsewhere. Here we add a
// high-treewidth vertex: attach a K4 via one vertex so the DP still
// works... Instead, recompute with the private B&B by temporarily checking
// sizes: the exported ExactMVC dispatches to the DP for these instances, so
// build the reference via brute subset search for small n.
func bnbMVCForTest(t *testing.T, g *graph.Graph) []int {
	t.Helper()
	n := g.N()
	if n > 32 {
		t.Fatalf("reference solver limited to 32 vertices, got %d", n)
	}
	// Greedy upper bound to limit subset sizes.
	best := MatchingVertexCover(g.Freeze())
	// Iterative deepening over cover sizes.
	for k := 0; k < len(best); k++ {
		if sol := findCoverOfSize(g, k); sol != nil {
			return sol
		}
	}
	return best
}

// findCoverOfSize searches for a vertex cover of exactly size k by
// recursive edge branching.
func findCoverOfSize(g *graph.Graph, k int) []int {
	var rec func(removed []bool, budget int, chosen []int) []int
	rec = func(removed []bool, budget int, chosen []int) []int {
		// Find an uncovered edge.
		var eu, ev = -1, -1
		for u := 0; u < g.N() && eu < 0; u++ {
			if removed[u] {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if !removed[w] {
					eu, ev = u, w
					break
				}
			}
		}
		if eu < 0 {
			return append([]int(nil), chosen...)
		}
		if budget == 0 {
			return nil
		}
		for _, pick := range []int{eu, ev} {
			removed[pick] = true
			if sol := rec(removed, budget-1, append(chosen, pick)); sol != nil {
				removed[pick] = false
				return sol
			}
			removed[pick] = false
		}
		return nil
	}
	return rec(make([]bool, g.N()), k, nil)
}

func TestTW2MVCLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 1500, T: 5}, rng)
	sol, err := ExactMVC(g.Freeze(), ExactOptions{})
	if err != nil {
		t.Fatalf("ExactMVC: %v", err)
	}
	if !IsVertexCover(g.Freeze(), sol) {
		t.Fatal("not a cover")
	}
	// Sandwich against the matching bound.
	if 2*len(sol) < len(MatchingVertexCover(g.Freeze())) {
		t.Error("below half the matching cover: impossible for an optimum")
	}
}
