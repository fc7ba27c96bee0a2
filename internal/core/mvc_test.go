package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

func TestMVCAlg1IsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(20)},
		{"cycle", gen.Cycle(17)},
		{"cactus", gen.RandomCactus(40, rng)},
		{"outerplanar", gen.MaximalOuterplanar(15, rng)},
		{"cliquependants", gen.CliquePendants(6)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 50, T: 5}, rng)},
		{"edgeless", graph.New(4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := MVCAlg1(tt.g.Freeze(), PracticalParams(), PipelineOptions{})
			if err != nil {
				t.Fatalf("MVCAlg1: %v", err)
			}
			if !mds.IsVertexCover(tt.g.Freeze(), res.S) {
				t.Errorf("set %v is not a vertex cover", res.S)
			}
		})
	}
}

func TestMVCAlg1Ratio(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 5; i++ {
		g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: 5}, rng)
		res, err := MVCAlg1(g.Freeze(), PracticalParams(), PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := mds.ExactMVC(g.Freeze(), mds.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(opt) > 0 && float64(len(res.S))/float64(len(opt)) > float64(approxRatio(1)) {
			t.Errorf("instance %d: MVC ratio %d/%d exceeds constant bound", i, len(res.S), len(opt))
		}
	}
}

func TestMVCD2IsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(15)},
		{"cycle", gen.Cycle(9)},
		{"triangle", gen.Complete(3)},
		{"complete", gen.Complete(6)},
		{"star", gen.Star(7)},
		{"cactus", gen.RandomCactus(35, rng)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: 4}, rng)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := MVCD2(tt.g.Freeze())
			if !mds.IsVertexCover(tt.g.Freeze(), res.S) {
				t.Errorf("set %v is not a vertex cover", res.S)
			}
		})
	}
}

func TestMVCD2RatioBound(t *testing.T) {
	// Theorem 4.4 states t-approximation for MVC on K_{2,t}-minor-free
	// graphs; our reading (the paper omits the proof) is measured here
	// with slack 2t against the exact optimum.
	rng := rand.New(rand.NewSource(43))
	tParam := 5
	for i := 0; i < 5; i++ {
		g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: tParam}, rng)
		res := MVCD2(g.Freeze())
		opt, err := mds.ExactMVC(g.Freeze(), mds.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(opt) > 0 && len(res.S) > 2*tParam*len(opt) {
			t.Errorf("instance %d: |cover| = %d vs OPT = %d beyond 2t bound", i, len(res.S), len(opt))
		}
	}
}

// Property: both MVC variants cover arbitrary connected graphs.
func TestMVCVariantsCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(20, 0.12, rng)
		a, err := MVCAlg1(g.Freeze(), PracticalParams(), PipelineOptions{})
		if err != nil {
			return false
		}
		b := MVCD2(g.Freeze())
		return mds.IsVertexCover(g.Freeze(), a.S) && mds.IsVertexCover(g.Freeze(), b.S)
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMVCAlg1NodeBudgetFallback runs MVCAlg1 on a 6-regular circulant
// with no local cuts at the practical radii: the whole graph is one
// 128-vertex residual component, under the size cap, whose exact search
// would run for many minutes. BruteNodeBudget makes it fall back to the
// matching cover (about 2 s on a 2-core x86 VM). The distributed
// process's component solve is checked against it on the same component;
// RunMVCAlg1 itself would repeat that solve at each of the 128 vertices.
func TestMVCAlg1NodeBudgetFallback(t *testing.T) {
	g, err := gen.RegularLike(128, 6)
	if err != nil {
		t.Fatal(err)
	}
	p := PracticalParams()
	start := time.Now()
	res, err := MVCAlg1(g.Freeze(), p, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MVCAlg1 on RegularLike(128, 6): %v", time.Since(start))
	if !mds.IsVertexCover(g.Freeze(), res.S) {
		t.Fatal("result is not a vertex cover")
	}
	if res.BruteFallbacks < 1 || len(res.X)+len(res.C2) != 0 || len(res.Components) != 1 {
		t.Fatalf("BruteFallbacks = %d, |X|+|C2| = %d, components = %d; want >= 1, 0, 1",
			res.BruteFallbacks, len(res.X)+len(res.C2), len(res.Components))
	}

	// Every vertex participates with all its neighbors, so each member's
	// flooded records are the whole graph.
	norm, err := p.normalized()
	if err != nil {
		t.Fatal(err)
	}
	proc := &floodProcess{
		rule:    mvcFlood{norm},
		records: map[int]partRecord{},
		memo:    &solveMemo{byKey: map[string]*memoEntry{}},
	}
	for v := range g.N() {
		proc.records[v] = partRecord{PartNbrs: g.Neighbors(v)}
	}
	if got := proc.componentPicks(); !graph.EqualSets(graph.Dedup(got), res.S) {
		t.Errorf("process component cover %v, MVCAlg1 %v", got, res.S)
	}
}
