package asdim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

func TestBFSAnnulusCoverCoversEverything(t *testing.T) {
	g := gen.Grid(5, 7)
	cover, err := BFSAnnulusCover(g, 3, 2)
	if err != nil {
		t.Fatalf("BFSAnnulusCover: %v", err)
	}
	if err := cover.Verify(g); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if len(cover.Classes) != 2 {
		t.Errorf("%d classes, want 2", len(cover.Classes))
	}
}

func TestBFSAnnulusCoverErrors(t *testing.T) {
	g := gen.Path(4)
	if _, err := BFSAnnulusCover(g, 0, 2); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := BFSAnnulusCover(g, 2, 0); err == nil {
		t.Error("parts 0 accepted")
	}
}

func TestVerifyRejectsBadCovers(t *testing.T) {
	g := gen.Path(4)
	missing := &Cover{Classes: [][]int{{0, 1}, {2}}} // 3 uncovered
	if err := missing.Verify(g); err == nil {
		t.Error("incomplete cover accepted")
	}
	oob := &Cover{Classes: [][]int{{0, 1, 2, 3, 9}}}
	if err := oob.Verify(g); err == nil {
		t.Error("out-of-range cover accepted")
	}
}

func TestPathAnnulusCoverIsBounded(t *testing.T) {
	// On a path rooted at an end, width-r annuli alternate between two
	// classes; each r-component of one class is a single annulus of weak
	// diameter <= r-1... <= width (boundary effects included).
	g := gen.Path(60)
	for _, r := range []int{1, 2, 3, 5} {
		cover, err := BFSAnnulusCover(g, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := ControlEstimate(g, cover, r)
		if got > 2*r {
			t.Errorf("r=%d: control estimate %d exceeds 2r", r, got)
		}
	}
}

func TestTreeAnnulusCoverIsBounded(t *testing.T) {
	// Trees have asymptotic dimension 1: the annulus cover's r-components
	// must have weak diameter O(r), independent of tree size.
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{50, 200, 500} {
		g := gen.RandomTree(n, rng)
		r := 3
		cover, err := BFSAnnulusCover(g, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := ControlEstimate(g, cover, r)
		// Within one width-3 annulus of a tree, an r-component consists of
		// vertices pairwise linked by hops <= r staying near the annulus;
		// its weak diameter is bounded by ~4r: two vertices in the same
		// r-component at layers within width w are joined through their
		// common ancestors... empirically <= 4r on BFS-layered trees.
		if got > 4*r {
			t.Errorf("n=%d: control estimate %d > 4r = %d", n, got, 4*r)
		}
	}
}

func TestMaxRComponentWeakDiameter(t *testing.T) {
	g := gen.Path(10)
	// Set {0, 2, 7, 9}: with r=2, r-components are {0,2} and {7,9}, weak
	// diameters 2 and 2.
	got := MaxRComponentWeakDiameter(g, []int{0, 2, 7, 9}, 2)
	if got != 2 {
		t.Errorf("got %d, want 2", got)
	}
	// With r=5 everything chains: weak diameter 9.
	got = MaxRComponentWeakDiameter(g, []int{0, 2, 7, 9}, 5)
	if got != 9 {
		t.Errorf("got %d, want 9", got)
	}
}

func TestEstimateControlFunction(t *testing.T) {
	g := gen.Grid(6, 6)
	points, err := EstimateControlFunction(g, []int{1, 2, 3}, 2)
	if err != nil {
		t.Fatalf("EstimateControlFunction: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Estimate < 0 {
			t.Errorf("r=%d: negative estimate", p.R)
		}
	}
}

// disjointClosedNeighborhoods reports whether the closed neighborhoods
// N[R_i] of the given sets are pairwise disjoint — the hypothesis of
// Lemma 5.2 (then Σ MDS(G, R_i) <= MDS(G)). It is the oracle for
// RSeparatedSubfamily.
func disjointClosedNeighborhoods(g *graph.Graph, sets [][]int) bool {
	seen := make(map[int]bool)
	for _, s := range sets {
		var closed []int
		for _, v := range s {
			closed = append(closed, g.Ball(v, 1)...)
		}
		for _, v := range graph.Dedup(closed) {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

func TestDisjointClosedNeighborhoods(t *testing.T) {
	g := gen.Path(10)
	if !disjointClosedNeighborhoods(g, [][]int{{0}, {5}, {9}}) {
		t.Error("far-apart singletons should have disjoint N[.]")
	}
	if disjointClosedNeighborhoods(g, [][]int{{0}, {2}}) {
		t.Error("N[0] and N[2] share vertex 1")
	}
	if !disjointClosedNeighborhoods(g, nil) {
		t.Error("empty family should be disjoint")
	}
}

func TestRSeparatedSubfamily(t *testing.T) {
	g := gen.Path(12)
	sets := [][]int{{0}, {2}, {5}, {7}, {11}}
	out := RSeparatedSubfamily(g, sets)
	if !disjointClosedNeighborhoods(g, out) {
		t.Fatal("selected subfamily not neighborhood-disjoint")
	}
	// {0} selected; {2} conflicts via vertex 1; {5} fits; {7} conflicts
	// via 6; {11} fits.
	if len(out) != 3 {
		t.Errorf("selected %d sets, want 3: %v", len(out), out)
	}
}

// Property: Lemma 5.2 executable check — for a neighborhood-disjoint
// family, Σ MDS(G, R_i) <= MDS(G).
func TestLemma52WithCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(16, 0.12, rng)
		var sets [][]int
		for v := 0; v < g.N(); v += 3 {
			sets = append(sets, []int{v})
		}
		family := RSeparatedSubfamily(g, sets)
		total := 0
		for _, s := range family {
			sol, err := mds.ExactBDominating(g.Freeze(), s, mds.ExactOptions{})
			if err != nil {
				return false
			}
			total += len(sol)
		}
		opt, err := mds.ExactMDS(g)
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

// Property: the annulus cover always covers and class sizes sum to n.
func TestAnnulusCoverPartitionProperty(t *testing.T) {
	f := func(seed int64, rawW uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(20, 0.1, rng)
		w := int(rawW%4) + 1
		cover, err := BFSAnnulusCover(g, w, 2)
		if err != nil {
			return false
		}
		if cover.Verify(g) != nil {
			return false
		}
		total := 0
		for _, class := range cover.Classes {
			total += len(class)
			if len(graph.Dedup(class)) != len(class) {
				return false
			}
		}
		return total == g.N()
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
