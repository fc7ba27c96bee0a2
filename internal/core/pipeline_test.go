package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// equalResults fails the test unless pipeline and sequential results agree
// on every algorithmic field (StageStats is pipeline-only by design).
func equalResults(t *testing.T, got, want *Alg1Result) {
	t.Helper()
	if !graph.EqualSets(got.S, want.S) {
		t.Errorf("S = %v, want %v", got.S, want.S)
	}
	if !graph.EqualSets(got.X, want.X) {
		t.Errorf("X = %v, want %v", got.X, want.X)
	}
	if !graph.EqualSets(got.I, want.I) {
		t.Errorf("I = %v, want %v", got.I, want.I)
	}
	if !graph.EqualSets(got.U, want.U) {
		t.Errorf("U = %v, want %v", got.U, want.U)
	}
	if !graph.EqualSets(got.Active, want.Active) {
		t.Errorf("Active = %v, want %v", got.Active, want.Active)
	}
	if len(got.Components) != len(want.Components) {
		t.Fatalf("components = %d, want %d", len(got.Components), len(want.Components))
	}
	for i := range got.Components {
		if !graph.EqualSets(got.Components[i], want.Components[i]) {
			t.Errorf("component %d = %v, want %v", i, got.Components[i], want.Components[i])
		}
	}
	if got.MaxComponentDiameter != want.MaxComponentDiameter {
		t.Errorf("MaxComponentDiameter = %d, want %d", got.MaxComponentDiameter, want.MaxComponentDiameter)
	}
	if got.RoundsEstimate != want.RoundsEstimate {
		t.Errorf("RoundsEstimate = %d, want %d", got.RoundsEstimate, want.RoundsEstimate)
	}
	if got.BruteFallbacks != want.BruteFallbacks {
		t.Errorf("BruteFallbacks = %d, want %d", got.BruteFallbacks, want.BruteFallbacks)
	}
}

// TestPipelineMatchesSequentialOnFamilies pins the pipeline to the legacy
// monolith on every workload family, including multi-component instances
// that exercise the parallel fan-out.
func TestPipelineMatchesSequentialOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	multi := graph.DisjointUnion(
		ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng),
		graph.DisjointUnion(gen.Grid(4, 5), gen.RandomCactus(40, rng)),
	)
	tests := []struct {
		name string
		g    *graph.Graph
		p    Params
	}{
		{"path", gen.Path(30), PracticalParams()},
		{"cycle", gen.Cycle(24), Params{R1: 3, R2: 2}},
		{"tree", gen.RandomTree(60, rng), PracticalParams()},
		{"cactus", gen.RandomCactus(50, rng), PracticalParams()},
		{"outerplanar", gen.MaximalOuterplanar(20, rng), PracticalParams()},
		{"cliquependants", gen.CliquePendants(8), PracticalParams()},
		{"grid", gen.Grid(5, 6), PracticalParams()},
		{"ding-mixed", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 70, T: 5}, rng), PracticalParams()},
		{"ding-strips", ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 80, T: 5}, rng), PracticalParams()},
		{"multi-component", multi, PracticalParams()},
		{"single", gen.Path(1), PracticalParams()},
		{"empty", graph.New(0), PracticalParams()},
		{"k4", gen.Complete(4), PracticalParams()},
		{"greedy-fallback", ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 80, T: 5}, rng),
			Params{R1: 4, R2: 4, MaxBruteComponent: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, err := Alg1Sequential(tt.g, tt.p)
			if err != nil {
				t.Fatalf("Alg1Sequential: %v", err)
			}
			got, err := Alg1Pipeline(tt.g, tt.p, PipelineOptions{Workers: 4})
			if err != nil {
				t.Fatalf("Alg1Pipeline: %v", err)
			}
			equalResults(t, got, want)
			if tt.g.N() > 0 && !mds.IsDominatingSetCSR(tt.g.Freeze(), got.S) {
				t.Fatal("pipeline result is not dominating")
			}
		})
	}
}

// Property: on randomized connected GNP and cactus instances the pipeline
// and the sequential reference agree on all fields, for random radii. CI
// runs this under -race, which also guards the component fan-out against
// data races.
func TestPipelineMatchesSequentialProperty(t *testing.T) {
	f := func(seed int64, rawR1, rawR2, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch pick % 3 {
		case 0:
			g = gen.GNPConnected(24, 0.1, rng)
		case 1:
			g = gen.RandomCactus(30, rng)
		default:
			g = graph.DisjointUnion(gen.GNPConnected(14, 0.15, rng), gen.RandomCactus(16, rng))
		}
		p := Params{R1: int(rawR1%5) + 1, R2: int(rawR2%5) + 2}
		want, err := Alg1Sequential(g, p)
		if err != nil {
			return false
		}
		got, err := Alg1Pipeline(g, p, PipelineOptions{Workers: 3})
		if err != nil {
			return false
		}
		return graph.EqualSets(got.S, want.S) &&
			graph.EqualSets(got.X, want.X) &&
			graph.EqualSets(got.I, want.I) &&
			graph.EqualSets(got.U, want.U) &&
			got.MaxComponentDiameter == want.MaxComponentDiameter &&
			got.BruteFallbacks == want.BruteFallbacks &&
			len(got.Components) == len(want.Components)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The pipeline output must not depend on the worker count, on the CSR
// entry point the huge-graph path calls. The second input has many
// residual components, so ComponentSolve fans out at every count.
func TestPipelineWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inputs := []*graph.Graph{
		graph.DisjointUnion(
			ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng),
			ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng),
		),
		graph.DisjointUnion(
			ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng),
			graph.DisjointUnion(gen.Grid(4, 5), gen.RandomCactus(40, rng)),
		),
	}
	for _, g := range inputs {
		csr := g.Freeze()
		base, err := Alg1CSR(csr, PracticalParams(), PipelineOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			got, err := Alg1CSR(csr, PracticalParams(), PipelineOptions{Workers: w})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			equalResults(t, got, base)
		}
	}
}

// StageStats must record the five pipeline stages in order with sane
// contents, and render as a table.
func TestPipelineStageStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng)
	res, err := Alg1CSR(g.Freeze(), PracticalParams(), PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"TwinReduce", "Cuts", "Partition", "ComponentSolve", "Stitch"}
	if len(res.StageStats) != len(wantStages) {
		t.Fatalf("got %d stages, want %d", len(res.StageStats), len(wantStages))
	}
	for i, s := range res.StageStats {
		if s.Name != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
		if s.Wall < 0 {
			t.Errorf("stage %q has negative wall time", s.Name)
		}
		if s.Unit == "" {
			t.Errorf("stage %q has no unit", s.Name)
		}
	}
	if res.StageStats[0].Items != len(res.Active) {
		t.Errorf("TwinReduce items = %d, want %d", res.StageStats[0].Items, len(res.Active))
	}
	if res.StageStats[4].Items != len(res.S) {
		t.Errorf("Stitch items = %d, want |S| = %d", res.StageStats[4].Items, len(res.S))
	}
	var total time.Duration
	for _, s := range res.StageStats {
		total += s.Wall
	}
	if total <= 0 {
		t.Error("total wall time not positive")
	}
	rendered := res.StageStats.Render()
	for _, name := range wantStages {
		if !strings.Contains(rendered, name) {
			t.Errorf("rendered table missing stage %q", name)
		}
	}
	// The sequential reference must leave StageStats empty.
	seq, err := Alg1Sequential(g, PracticalParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.StageStats) != 0 {
		t.Errorf("sequential path recorded %d stages", len(seq.StageStats))
	}
}
