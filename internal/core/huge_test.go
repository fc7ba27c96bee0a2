package core_test

// mdsrun -alg alg1 and mdsingest -mode solve load a graph straight into
// a CSR (graphio.LoadCSR) — the parallel text parser at w workers, or a
// csrbin file, mmap'd read-only — and hand it to Alg1CSR at the same
// worker count.
// These tests drive that path and pin it field for field to Alg1Pipeline
// on the adjacency-list graph.

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
	"localmds/internal/mds"
)

// parseHuge encodes g in format f and loads it back through
// graphio.ParseCSR, the parser LoadCSR runs on a text file, with the text
// parser on workers goroutines.
func parseHuge(g *graph.Graph, f graphio.Format, workers int) (*graph.CSR, error) {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g.Freeze(), f); err != nil {
		return nil, err
	}
	return graphio.ParseCSR(buf.Bytes(), f, graphio.CSROptions{Workers: workers})
}

// equalAlg1Results fails the test unless the two results agree on every
// algorithmic field (StageStats carries timings and is never compared).
func equalAlg1Results(t *testing.T, got, want *core.Alg1Result) {
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

// TestAlg1HugeMatchesPipelineOnFamilies pins the huge path (edge-list
// text through the parallel parser, then Alg1CSR) to the pipeline on every
// workload family, including twin-heavy and multi-component instances and
// the greedy-fallback regime.
func TestAlg1HugeMatchesPipelineOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	multi := graph.DisjointUnion(
		ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng),
		graph.DisjointUnion(gen.Grid(4, 5), gen.RandomCactus(40, rng)),
	)
	tests := []struct {
		name string
		g    *graph.Graph
		p    core.Params
	}{
		{"path", gen.Path(30), core.PracticalParams()},
		{"cycle", gen.Cycle(24), core.Params{R1: 3, R2: 2}},
		{"tree", gen.RandomTree(60, rng), core.PracticalParams()},
		{"cactus", gen.RandomCactus(50, rng), core.PracticalParams()},
		{"outerplanar", gen.MaximalOuterplanar(20, rng), core.PracticalParams()},
		{"cliquependants", gen.CliquePendants(8), core.PracticalParams()},
		{"grid", gen.Grid(5, 6), core.PracticalParams()},
		{"ding-mixed", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 70, T: 5}, rng), core.PracticalParams()},
		{"multi-component", multi, core.PracticalParams()},
		{"single", gen.Path(1), core.PracticalParams()},
		{"empty", graph.New(0), core.PracticalParams()},
		{"k4", gen.Complete(4), core.PracticalParams()},
		{"twins-complete-bipartite", gen.CompleteBipartite(3, 7), core.PracticalParams()},
		{"greedy-fallback", ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 80, T: 5}, rng),
			core.Params{R1: 4, R2: 4, MaxBruteComponent: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, err := core.Alg1Pipeline(tt.g, tt.p, core.PipelineOptions{Workers: 4})
			if err != nil {
				t.Fatalf("Alg1Pipeline: %v", err)
			}
			csr, err := parseHuge(tt.g, graphio.FormatEdgeList, 4)
			if err != nil {
				t.Fatalf("ParseCSR: %v", err)
			}
			got, err := core.Alg1CSR(csr, tt.p, core.PipelineOptions{Workers: 4})
			if err != nil {
				t.Fatalf("Alg1CSR: %v", err)
			}
			equalAlg1Results(t, got, want)
			if tt.g.N() > 0 && !mds.IsDominatingSetCSR(csr, got.S) {
				t.Fatal("huge-path result is not dominating")
			}
		})
	}
}

// Property: on randomized multi-component instances the huge path (csrbin
// bytes, then Alg1CSR) and the pipeline agree on all fields, for random
// radii. CI runs this under -race.
func TestAlg1HugeMatchesPipelineProperty(t *testing.T) {
	f := func(seed int64, rawR1, rawR2, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		switch pick % 3 {
		case 0:
			g = gen.GNPConnected(24, 0.1, rng)
		case 1:
			g = graph.DisjointUnion(gen.GNPConnected(14, 0.15, rng), gen.RandomCactus(16, rng))
		default:
			g = graph.DisjointUnion(gen.RandomTree(20, rng),
				graph.DisjointUnion(gen.Grid(3, 4), gen.CompleteBipartite(2, 5)))
		}
		p := core.Params{R1: int(rawR1%5) + 1, R2: int(rawR2%5) + 2}
		want, err := core.Alg1Pipeline(g, p, core.PipelineOptions{Workers: 2})
		if err != nil {
			return false
		}
		csr, err := parseHuge(g, graphio.FormatCSRBin, 3)
		if err != nil {
			return false
		}
		got, err := core.Alg1CSR(csr, p, core.PipelineOptions{Workers: 3})
		if err != nil {
			return false
		}
		return graph.EqualSets(got.S, want.S) &&
			graph.EqualSets(got.X, want.X) &&
			graph.EqualSets(got.I, want.I) &&
			graph.EqualSets(got.U, want.U) &&
			graph.EqualSets(got.Active, want.Active) &&
			got.MaxComponentDiameter == want.MaxComponentDiameter &&
			got.BruteFallbacks == want.BruteFallbacks &&
			len(got.Components) == len(want.Components)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The huge path (text parsed at w workers, then Alg1CSR at w
// workers) returns the same result at every worker count.
func TestAlg1HugeWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.DisjointUnion(
		ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 60, T: 5}, rng),
		ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng),
	)
	base, err := core.Alg1CSR(g.Freeze(), core.PracticalParams(), core.PipelineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		csr, err := parseHuge(g, graphio.FormatEdgeList, w)
		if err != nil {
			t.Fatalf("workers=%d: ParseCSR: %v", w, err)
		}
		got, err := core.Alg1CSR(csr, core.PracticalParams(), core.PipelineOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		equalAlg1Results(t, got, base)
	}
}

// Alg1CSR must not write its input CSR: on the huge path it is a
// read-only mmap of a csrbin file, where a write would fault. It must
// also record the five pipeline stages.
func TestAlg1HugeInputUntouchedAndStages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng)
	path := filepath.Join(t.TempDir(), "g.csrbin")
	if err := graphio.WriteFile(path, g.Freeze(), graphio.FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	m, err := graphio.OpenCSRBin(path, graphio.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	before := m.CSR.Fingerprint()
	res, err := core.Alg1CSR(&m.CSR, core.PracticalParams(), core.PipelineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.CSR.Fingerprint() != before {
		t.Fatal("Alg1CSR mutated its input CSR")
	}
	want, err := core.Alg1Pipeline(g, core.PracticalParams(), core.PipelineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	equalAlg1Results(t, res, want)
	wantStages := []string{"TwinReduce", "Cuts", "Partition", "ComponentSolve", "Stitch"}
	if len(res.StageStats) != len(wantStages) {
		t.Fatalf("got %d stages, want %d", len(res.StageStats), len(wantStages))
	}
	for i, s := range res.StageStats {
		if s.Name != wantStages[i] {
			t.Errorf("stage %d = %q, want %q", i, s.Name, wantStages[i])
		}
	}
}
