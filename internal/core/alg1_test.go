package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// Analysis constants from Lemmas 3.2 and 3.3, which only tests check
// against. The paper did not optimize them: c3.2(d) = 3(d+1) and
// c3.3(d) = 22(d+1), giving the headline ratio c3.2(1) + c3.3(1) + 1 = 50
// for asymptotic dimension 1.
func c32(d int) int { return 3 * (d + 1) }

// c33 is the Lemma 3.3 constant 22(d+1).
func c33(d int) int { return 22 * (d + 1) }

// approxRatio is the Theorem 4.1/4.3 approximation ratio
// c3.2(d) + c3.3(d) + 1. Note a paper-internal off-by-one: Theorem 4.1
// states "c3.2(1) + c3.3(1) + 1 = 50", but with the proofs' constants
// (c3.2(1) = 6, c3.3(1) = 44) the sum is 51. We keep the formula; the
// headline constant is 50 and either reading is a constant-factor bound.
func approxRatio(d int) int { return c32(d) + c33(d) + 1 }

// intersects reports whether two sorted vertex sets share a vertex.
func intersects(a, b []int) bool {
	return slices.ContainsFunc(a, func(v int) bool { return graph.SortedContains(b, v) })
}

func TestAlg1IsDominatingOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(30)},
		{"cycle", gen.Cycle(24)},
		{"tree", gen.RandomTree(60, rng)},
		{"cactus", gen.RandomCactus(50, rng)},
		{"outerplanar", gen.MaximalOuterplanar(20, rng)},
		{"cliquependants", gen.CliquePendants(8)},
		{"grid", gen.Grid(5, 6)},
		{"ding-mixed", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 70, T: 5}, rng)},
		{"ding-strips", ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng)},
		{"single", gen.Path(1)},
		{"k4", gen.Complete(4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Alg1(tt.g, PracticalParams())
			if err != nil {
				t.Fatalf("Alg1: %v", err)
			}
			if !mds.IsDominatingSet(tt.g, res.S) {
				t.Fatalf("returned set %v is not dominating", res.S)
			}
		})
	}
}

func TestAlg1RatioOnK2tFreeInstances(t *testing.T) {
	// On the paper's class, the practical radii should already achieve a
	// small constant ratio — far below the proven 50.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng)
		res, err := Alg1(g, PracticalParams())
		if err != nil {
			t.Fatalf("Alg1: %v", err)
		}
		opt, err := mds.ExactMDS(g.Freeze(), mds.ExactOptions{})
		if err != nil {
			t.Fatalf("ExactMDS: %v", err)
		}
		ratio := float64(len(res.S)) / float64(len(opt))
		if ratio > float64(approxRatio(1)) {
			t.Errorf("instance %d: ratio %.2f exceeds the proven bound 50", i, ratio)
		}
		if ratio > 8 {
			t.Errorf("instance %d: ratio %.2f unexpectedly large for practical params", i, ratio)
		}
	}
}

func TestAlg1EmptyAndErrors(t *testing.T) {
	res, err := Alg1(graph.New(0), PracticalParams())
	if err != nil || len(res.S) != 0 {
		t.Errorf("empty graph: %v, %v", res.S, err)
	}
	if _, err := Alg1(gen.Path(3), Params{R1: 0, R2: 4}); err == nil {
		t.Error("R1 = 0 accepted")
	}
	if _, err := Alg1(gen.Path(3), Params{R1: 2, R2: 1}); err == nil {
		t.Error("R2 = 1 accepted")
	}
}

func TestAlg1TwinReductionUsed(t *testing.T) {
	// CliquePendants has many twins among pendants? No — pendants have
	// distinct neighborhoods. Use a graph with true twins: K4 plus a
	// pendant. K4's vertices 1,2,3 are mutual twins (all adjacent to
	// everything); the reduction must shrink the instance.
	g := gen.Complete(4)
	p := g.AddVertex()
	g.AddEdge(0, p)
	res, err := Alg1(g, PracticalParams())
	if err != nil {
		t.Fatalf("Alg1: %v", err)
	}
	if len(res.Active) >= g.N() {
		t.Errorf("twin reduction kept %d of %d vertices", len(res.Active), g.N())
	}
	if !mds.IsDominatingSet(g, res.S) {
		t.Fatal("not dominating after twin reduction")
	}
}

func TestAlg1LongCycleTakesLocalCuts(t *testing.T) {
	// On a long cycle every vertex is a local 1-cut (§4), so S = V and the
	// brute-force phase is empty.
	g := gen.Cycle(40)
	res, err := Alg1(g, Params{R1: 3, R2: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != 40 {
		t.Errorf("|X| = %d, want 40", len(res.X))
	}
	if len(res.Components) != 0 {
		t.Errorf("expected no residual components, got %d", len(res.Components))
	}
}

func TestAlg1PaperParamsSmallGraph(t *testing.T) {
	// Paper radii are astronomically large; on a small graph the balls
	// saturate and the algorithm still returns a valid (here: exact,
	// because no local cuts survive saturated balls... the graph is
	// 3-connected-ish) dominating set.
	g := gen.Complete(6)
	res, err := Alg1(g, PaperParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if !mds.IsDominatingSet(g, res.S) {
		t.Fatal("not dominating")
	}
	if len(res.S) != 1 {
		t.Errorf("K6: |S| = %d, want 1", len(res.S))
	}
}

func TestAlg1ComponentDiameterBounded(t *testing.T) {
	// Lemma 4.2's executable form: on strip chains, residual components
	// after the cut phase have bounded diameter even as n grows.
	rng := rand.New(rand.NewSource(5))
	maxDiams := make([]int, 0, 3)
	for _, n := range []int{60, 120, 240} {
		g := ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: n, T: 5}, rng)
		res, err := Alg1(g, PracticalParams())
		if err != nil {
			t.Fatal(err)
		}
		maxDiams = append(maxDiams, res.MaxComponentDiameter)
	}
	for i, d := range maxDiams {
		if d > 24 {
			t.Errorf("size step %d: residual component diameter %d too large", i, d)
		}
	}
}

func TestAlg1FallbackCounting(t *testing.T) {
	// Forcing a tiny brute-force cap exercises the greedy fallback; the
	// result must remain dominating.
	rng := rand.New(rand.NewSource(11))
	g := ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 80, T: 5}, rng)
	p := PracticalParams()
	p.MaxBruteComponent = 2
	res, err := Alg1(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !mds.IsDominatingSet(g, res.S) {
		t.Fatal("not dominating with greedy fallback")
	}
}

// Property: Algorithm 1 returns a dominating set for arbitrary graphs and
// arbitrary (valid) radii — validity is radius- and class-independent.
func TestAlg1AlwaysDominatesProperty(t *testing.T) {
	f := func(seed int64, rawR1, rawR2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(24, 0.1, rng)
		p := Params{R1: int(rawR1%5) + 1, R2: int(rawR2%5) + 2}
		res, err := Alg1(g, p)
		if err != nil {
			return false
		}
		return mds.IsDominatingSet(g, res.S)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: X, I, U are pairwise disjoint and all within the active set.
func TestAlg1PartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomCactus(30, rng)
		res, err := Alg1(g, PracticalParams())
		if err != nil {
			return false
		}
		if intersects(res.X, res.U) || intersects(res.I, res.U) {
			return false
		}
		for _, set := range [][]int{res.X, res.I, res.U} {
			if !graph.IsSubset(set, res.Active) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAlg2MatchesAlg1WithPaperRadii(t *testing.T) {
	g := gen.Cycle(12)
	f := K2tControlFunction(3)
	a, err := Alg2(g, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Alg1(g, PaperParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualSets(a.S, b.S) {
		t.Errorf("Alg2 = %v, Alg1(paper) = %v", a.S, b.S)
	}
}

func TestParamsAccessors(t *testing.T) {
	p := PaperParams(3)
	if p.R1 != 43*3+2 {
		t.Errorf("R1 = %d, want %d", p.R1, 43*3+2)
	}
	if p.R2 != 73*3+4 {
		t.Errorf("R2 = %d, want %d", p.R2, 73*3+4)
	}
	// The paper states 50 but its own constants sum to 6 + 44 + 1 = 51;
	// see the approxRatio doc comment.
	if approxRatio(1) != 51 {
		t.Errorf("approxRatio(1) = %d, want 51", approxRatio(1))
	}
	if c32(1) != 6 || c33(1) != 44 {
		t.Errorf("c32/c33 = %d/%d, want 6/44", c32(1), c33(1))
	}
	pr := PracticalParams()
	if g := pr.GatherRadius(); g != 2*pr.R2+5 {
		t.Errorf("GatherRadius = %d, want %d", g, 2*pr.R2+5)
	}
}
