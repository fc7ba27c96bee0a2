package mds

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

func TestIsDominatingSet(t *testing.T) {
	g := gen.Path(5)
	tests := []struct {
		s    []int
		want bool
	}{
		{[]int{1, 3}, true},
		{[]int{2}, false},
		{[]int{0, 2, 4}, true},
		{[]int{}, false},
		{[]int{0, 4}, false}, // vertex 2 undominated
		{[]int{-1}, false},   // out of range
	}
	for _, tt := range tests {
		if got := IsDominatingSet(g, tt.s); got != tt.want {
			t.Errorf("IsDominatingSet(P5, %v) = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestDominatesSet(t *testing.T) {
	g := gen.Path(7)
	if !DominatesSet(g, []int{1}, []int{0, 1, 2}) {
		t.Error("{1} should dominate {0,1,2}")
	}
	if DominatesSet(g, []int{1}, []int{3}) {
		t.Error("{1} should not dominate {3}")
	}
	if !DominatesSet(g, nil, nil) {
		t.Error("empty set should dominate empty target")
	}
}

func TestIsVertexCover(t *testing.T) {
	g := gen.Cycle(5)
	if !IsVertexCover(g.Freeze(), []int{0, 2, 4}) {
		t.Error("{0,2,4} should cover C5")
	}
	if IsVertexCover(g.Freeze(), []int{0, 2}) {
		t.Error("{0,2} should not cover C5 (edge 3-4)")
	}
	if !IsVertexCover(graph.New(3).Freeze(), nil) {
		t.Error("empty set should cover the edgeless graph")
	}
}

func TestExactMDSKnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"P1", gen.Path(1), 1},
		{"P3", gen.Path(3), 1},
		{"P5", gen.Path(5), 2},
		{"P7", gen.Path(7), 3},
		{"C3", gen.Cycle(3), 1},
		{"C6", gen.Cycle(6), 2},
		{"C9", gen.Cycle(9), 3},
		{"K5", gen.Complete(5), 1},
		{"star", gen.Star(6), 1},
		{"K23", gen.CompleteBipartite(2, 3), 2}, // e.g. one vertex per side? {0} dominates 2,3,4 and 0; 1 needs cover -> {0,1} or {0,2}
		{"grid3x3", gen.Grid(3, 3), 3},
		{"cliquependants", gen.CliquePendants(6), 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := ExactMDS(tt.g.Freeze(), ExactOptions{})
			if err != nil {
				t.Fatalf("ExactMDS: %v", err)
			}
			if !IsDominatingSet(tt.g, s) {
				t.Fatalf("returned set %v is not dominating", s)
			}
			if len(s) != tt.want {
				t.Errorf("|MDS| = %d, want %d (set %v)", len(s), tt.want, s)
			}
		})
	}
}

func TestExactMDSRefusesLarge(t *testing.T) {
	// Treewidth-<=2 graphs, forests included, go to the unbounded DP; only
	// genuinely hard instances (here: a grid beyond the cap) hit the
	// bounded branch and bound.
	side := 1
	for side*side <= MaxExactMDSVertices {
		side++
	}
	if _, err := ExactMDS(gen.Grid(side, side).Freeze(), ExactOptions{}); err == nil {
		t.Error("oversized high-treewidth instance accepted")
	}
	if _, err := ExactMDS(gen.Path(MaxExactMDSVertices+1).Freeze(), ExactOptions{}); err != nil {
		t.Errorf("large forest should use the DP: %v", err)
	}
	if _, err := ExactMDS(gen.Cycle(MaxExactMDSVertices+41).Freeze(), ExactOptions{}); err != nil {
		t.Errorf("large cycle should use the treewidth DP: %v", err)
	}
	// A budget bails out deterministically instead of stalling, and no
	// budget lifts the cap.
	if _, err := ExactMDS(gen.Grid(9, 9).Freeze(), ExactOptions{MaxNodes: 10}); err == nil {
		t.Error("exhausted node budget should error")
	}
	if _, err := ExactMDS(gen.Grid(side, side).Freeze(), ExactOptions{MaxNodes: 1 << 40}); err == nil || !strings.Contains(err.Error(), "capped") {
		t.Errorf("%dx%d grid with a roomy budget: %v, want the cap error", side, side, err)
	}
}

func TestExactBDominating(t *testing.T) {
	g := gen.Path(9)
	// Dominate only {0}: one vertex from {0,1} suffices.
	s, err := ExactBDominating(g.Freeze(), []int{0}, ExactOptions{})
	if err != nil {
		t.Fatalf("ExactBDominating: %v", err)
	}
	if len(s) != 1 || !DominatesSet(g, s, []int{0}) {
		t.Errorf("B={0}: got %v", s)
	}
	// Dominate the two ends: needs 2 vertices.
	s, err = ExactBDominating(g.Freeze(), []int{0, 8}, ExactOptions{})
	if err != nil {
		t.Fatalf("ExactBDominating: %v", err)
	}
	if len(s) != 2 {
		t.Errorf("B={0,8}: got %v, want size 2", s)
	}
	// Empty target: empty solution.
	s, err = ExactBDominating(g.Freeze(), nil, ExactOptions{})
	if err != nil || len(s) != 0 {
		t.Errorf("B=∅: got %v, %v", s, err)
	}
}

func TestGreedyMDSIsDominating(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(60, 0.05, rng)
		s := GreedyMDS(g.Freeze())
		if !IsDominatingSet(g, s) {
			t.Errorf("seed %d: greedy set not dominating", seed)
		}
	}
}

func TestTwoPackingLowerBound(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(30, 0.1, rng)
		pack := TwoPacking(g.Freeze())
		opt, err := ExactMDS(g.Freeze(), ExactOptions{})
		if err != nil {
			t.Fatalf("ExactMDS: %v", err)
		}
		if len(pack) > len(opt) {
			t.Errorf("seed %d: 2-packing %d exceeds MDS %d", seed, len(pack), len(opt))
		}
		// Verify pairwise distance >= 3.
		for i := 0; i < len(pack); i++ {
			dist := g.BFSFrom(pack[i])
			for j := i + 1; j < len(pack); j++ {
				if d := dist[pack[j]]; d >= 0 && d < 3 {
					t.Errorf("seed %d: packing vertices %d,%d at distance %d", seed, pack[i], pack[j], d)
				}
			}
		}
	}
}

func TestExactMVCKnownValues(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"P2", gen.Path(2), 1},
		{"P5", gen.Path(5), 2},
		{"C5", gen.Cycle(5), 3},
		{"C6", gen.Cycle(6), 3},
		{"K4", gen.Complete(4), 3},
		{"K23", gen.CompleteBipartite(2, 3), 2},
		{"star", gen.Star(7), 1},
		{"edgeless", graph.New(4), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := ExactMVC(tt.g.Freeze(), ExactOptions{})
			if err != nil {
				t.Fatalf("ExactMVC: %v", err)
			}
			if !IsVertexCover(tt.g.Freeze(), s) {
				t.Fatalf("returned set %v is not a cover", s)
			}
			if len(s) != tt.want {
				t.Errorf("|MVC| = %d, want %d (set %v)", len(s), tt.want, s)
			}
		})
	}
}

func TestMatchingVertexCover(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(40, 0.08, rng)
		cover := MatchingVertexCover(g.Freeze())
		if !IsVertexCover(g.Freeze(), cover) {
			t.Errorf("seed %d: matching cover is not a cover", seed)
		}
	}
}

// Property: greedy >= exact, and greedy is dominating; exact solution is
// dominating and no smaller than the 2-packing bound.
func TestMDSSandwichProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(18, 0.15, rng)
		exact, err := ExactMDS(g.Freeze(), ExactOptions{})
		if err != nil {
			return false
		}
		greedy := GreedyMDS(g.Freeze())
		pack := TwoPacking(g.Freeze())
		return IsDominatingSet(g, exact) &&
			IsDominatingSet(g, greedy) &&
			len(exact) <= len(greedy) &&
			len(pack) <= len(exact)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the 2-approximation guarantee of the matching cover holds
// against the exact MVC.
func TestMVCTwoApproxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(16, 0.2, rng)
		exact, err := ExactMVC(g.Freeze(), ExactOptions{})
		if err != nil {
			return false
		}
		approx := MatchingVertexCover(g.Freeze())
		if !IsVertexCover(g.Freeze(), exact) || !IsVertexCover(g.Freeze(), approx) {
			return false
		}
		return len(approx) <= 2*len(exact) && len(exact) <= len(approx)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: MDS on the twin-reduced graph has the same size as on the
// original (§2 of the paper: MDS(G⁻) = MDS(G)).
func TestTwinReductionPreservesMDSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(14, 0.3, rng)
		reduced, _ := g.TwinReduction()
		a, err1 := ExactMDS(g.Freeze(), ExactOptions{})
		b, err2 := ExactMDS(reduced.Freeze(), ExactOptions{})
		if err1 != nil || err2 != nil {
			return false
		}
		return len(a) == len(b)
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Lemma 5.2 — for subsets with pairwise disjoint closed
// neighborhoods, the B-dominating optima sum to at most MDS(G).
func TestLemma52Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(16, 0.12, rng)
		// Build disjoint-N[.] subsets greedily from a 2-packing: balls of
		// radius 1 around 2-packing vertices are pairwise disjoint.
		pack := TwoPacking(g.Freeze())
		total := 0
		for _, v := range pack {
			s, err := ExactBDominating(g.Freeze(), []int{v}, ExactOptions{})
			if err != nil {
				return false
			}
			total += len(s)
		}
		opt, err := ExactMDS(g.Freeze(), ExactOptions{})
		if err != nil {
			return false
		}
		return total <= len(opt)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestForestDPMatchesBnB(t *testing.T) {
	// Cross-check the tree DP against branch and bound on small trees
	// (forcing the B&B path by adding and removing a phantom edge is
	// intrusive; instead call the internal DP directly).
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(18, rng)
		dpSol := exactMDSForest(g)
		if !IsDominatingSet(g, dpSol) {
			t.Fatalf("seed %d: DP solution not dominating", seed)
		}
		bnb, err := ExactBDominating(g.Freeze(), allVerticesForTest(g), ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(dpSol) != len(bnb) {
			t.Errorf("seed %d: DP %d vs B&B %d", seed, len(dpSol), len(bnb))
		}
	}
}

func allVerticesForTest(g *graph.Graph) []int {
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	return all
}

func TestForestDPLargeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := gen.RandomTree(5000, rng)
	sol, err := ExactMDS(g.Freeze(), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsDominatingSet(g, sol) {
		t.Fatal("not dominating")
	}
	// Sanity: at most n/2 + small slack, at least 2-packing.
	if len(sol) > g.N()/2+1 || len(sol) < len(TwoPacking(g.Freeze())) {
		t.Errorf("implausible optimum %d for n=%d", len(sol), g.N())
	}
	if want := len(exactMDSForest(g)); len(sol) != want {
		t.Errorf("|MDS| = %d, forest DP oracle %d", len(sol), want)
	}
}

func TestForestDPForest(t *testing.T) {
	g := graph.DisjointUnion(gen.Path(7), gen.Star(4))
	sol, err := ExactMDS(g.Freeze(), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsDominatingSet(g, sol) {
		t.Fatal("not dominating")
	}
	if len(sol) != 4 || len(exactMDSForest(g)) != 4 { // P7 needs 3, star needs 1
		t.Errorf("|MDS| = %d, forest DP oracle %d, want 4", len(sol), len(exactMDSForest(g)))
	}
}

func TestForestDPIsolated(t *testing.T) {
	g := graph.New(3)
	sol, err := ExactMDS(g.Freeze(), ExactOptions{})
	if err != nil || len(sol) != 3 || len(exactMDSForest(g)) != 3 {
		t.Errorf("isolated vertices: %v, %v (forest DP oracle %v)", sol, err, exactMDSForest(g))
	}
}

// TestExactMVCBudget checks ExactMVC's ExactOptions: a search over
// MaxNodes fails with the same error on every run, a budget the search
// fits in returns the unbounded optimum.
func TestExactMVCBudget(t *testing.T) {
	g := gen.Complete(9) // treewidth 8: the DP declines, branch and bound runs
	_, err1 := ExactMVC(g.Freeze(), ExactOptions{MaxNodes: 3})
	_, err2 := ExactMVC(g.Freeze(), ExactOptions{MaxNodes: 3})
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("MaxNodes 3: errors %v and %v, want one budget error twice", err1, err2)
	}
	if !strings.Contains(err1.Error(), "3-node budget") {
		t.Errorf("budget error %q does not name the budget", err1)
	}
	want, err := ExactMVC(g.Freeze(), ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExactMVC(g.Freeze(), ExactOptions{MaxNodes: 1_000_000})
	if err != nil || !graph.EqualSets(got, want) {
		t.Errorf("budgeted = %v, %v; unbounded = %v", got, err, want)
	}
}

// TestExactMVCNodeCountPinned pins the branch-and-bound search node for
// node: on each instance the search finishes within exactly N nodes (a
// budget of N succeeds, N−1 fails) and returns the same cover. The
// counts were taken from the search before its residual degrees and
// matching marks became incremental, so any change to the branching
// order or the bound shows here.
func TestExactMVCNodeCountPinned(t *testing.T) {
	circulant, err := gen.RegularLike(48, 6)
	if err != nil {
		t.Fatal(err)
	}
	var circulantCover []int
	for v := range 48 {
		if v%4 != 3 {
			circulantCover = append(circulantCover, v)
		}
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		nodes int64
		cover []int
	}{
		{"RegularLike(48,6)", circulant, 5243, circulantCover},
		{"GNP(50,0.15,seed1)", gen.GNP(50, 0.15, rand.New(rand.NewSource(1))), 465,
			[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 14, 15, 16, 17, 19, 21, 23, 24, 25, 26, 27, 28, 29, 30, 31, 36, 38, 40, 42, 47, 48, 49}},
	}
	for _, tc := range cases {
		got, err := ExactMVC(tc.g.Freeze(), ExactOptions{MaxNodes: tc.nodes})
		if err != nil || !graph.EqualSets(got, tc.cover) {
			t.Errorf("%s, budget %d: cover %v, err %v; want %v", tc.name, tc.nodes, got, err, tc.cover)
		}
		if _, err := ExactMVC(tc.g.Freeze(), ExactOptions{MaxNodes: tc.nodes - 1}); err == nil {
			t.Errorf("%s: budget %d succeeded, want the search to need %d nodes", tc.name, tc.nodes-1, tc.nodes)
		}
	}
}

// IsDominatingSet reports whether s dominates every vertex of g: each
// vertex is in s or adjacent to a member of s. It is the adjacency-list
// check that mds's tests hold IsDominatingSetCSR and the solvers to.
func IsDominatingSet(g *graph.Graph, s []int) bool {
	return DominatesSet(g, s, allVertices(g.N()))
}

// DominatesSet reports whether every vertex of target is in s or adjacent
// to a member of s (s is "B-dominating" for B = target, §2).
func DominatesSet(g *graph.Graph, s, target []int) bool {
	dominated := make([]bool, g.N())
	for _, v := range s {
		if v < 0 || v >= g.N() {
			return false
		}
		dominated[v] = true
		for _, u := range g.Neighbors(v) {
			dominated[u] = true
		}
	}
	for _, v := range target {
		if !dominated[v] {
			return false
		}
	}
	return true
}
