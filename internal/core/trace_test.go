package core

import (
	"fmt"
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/obs"
)

// traceTestGraph is a multi-component instance so the ComponentSolve stage
// produces several component spans.
func traceTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return graph.DisjointUnion(
		ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 40, T: 5}, rng),
		graph.DisjointUnion(gen.Grid(3, 4), gen.RandomCactus(25, rng)),
	)
}

var traceStageNames = []string{"TwinReduce", "Cuts", "Partition", "ComponentSolve", "Stitch"}

func TestSpanHooksRecordStageAndComponentSpans(t *testing.T) {
	g := traceTestGraph(t)
	p := Params{R1: 2, R2: 2, MaxBruteComponent: 64}

	tr, root := obs.NewTrace("req-trace-test", "solve", obs.TraceOptions{})
	res, err := Alg1Pipeline(g, p, PipelineOptions{Hooks: SpanHooks(root)})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	view := tr.View()
	if view.Root == nil {
		t.Fatal("no root span")
	}
	stages := view.Root.Children
	if len(stages) != len(traceStageNames) {
		t.Fatalf("stage spans = %d, want %d", len(stages), len(traceStageNames))
	}
	var compStage *obs.SpanView
	for i, name := range traceStageNames {
		if stages[i].Name != name {
			t.Errorf("stage %d = %q, want %q", i, stages[i].Name, name)
		}
		if stages[i].Open {
			t.Errorf("stage %q left open", stages[i].Name)
		}
		if stages[i].Name == "ComponentSolve" {
			compStage = &stages[i]
		}
	}
	if compStage == nil {
		t.Fatal("no ComponentSolve span")
	}
	if want := len(res.Components); len(compStage.Children) != want {
		t.Fatalf("component spans = %d, want %d (one per residual component)", len(compStage.Children), want)
	}
	seen := make(map[string]bool)
	for _, c := range compStage.Children {
		if c.Open {
			t.Errorf("component span %q left open", c.Name)
		}
		seen[c.Name] = true
	}
	for i := range res.Components {
		if name := fmt.Sprintf("component %d", i); !seen[name] {
			t.Errorf("missing span %q", name)
		}
	}
}

// TestSpanHooksHugeMatchesAndRecords traces Alg1CSR on a frozen CSR, as
// the huge-graph path calls it, at four workers: component spans open and
// close concurrently, and the hooks must neither race nor change the
// result.
func TestSpanHooksHugeMatchesAndRecords(t *testing.T) {
	g := traceTestGraph(t)
	p := Params{R1: 2, R2: 2, MaxBruteComponent: 64}
	csr := g.Freeze()

	plain, err := Alg1CSR(csr, p, PipelineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, root := obs.NewTrace("req-huge-trace", "solve", obs.TraceOptions{})
	traced, err := Alg1CSR(csr, p, PipelineOptions{Workers: 4, Hooks: SpanHooks(root)})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	// Hooks must never change the result.
	equalResults(t, traced, plain)

	view := tr.View()
	if view.Root == nil || len(view.Root.Children) != len(traceStageNames) {
		t.Fatalf("recorded %d stage spans, want %d", len(view.Root.Children), len(traceStageNames))
	}
	compStage := view.Root.Children[3]
	if want := len(traced.Components); len(compStage.Children) != want {
		t.Fatalf("component spans = %d, want %d (one per residual component)", len(compStage.Children), want)
	}
	for _, c := range compStage.Children {
		if c.Open {
			t.Errorf("component span %q left open", c.Name)
		}
	}
}

func TestSpanHooksNilParent(t *testing.T) {
	if h := SpanHooks(nil); h != nil {
		t.Fatalf("SpanHooks(nil) = %v, want nil (tracing off)", h)
	}
	g := traceTestGraph(t)
	p := Params{R1: 2, R2: 2, MaxBruteComponent: 64}
	// Nil hooks through the options structs must behave exactly as before.
	if _, err := Alg1Pipeline(g, p, PipelineOptions{Hooks: nil}); err != nil {
		t.Fatal(err)
	}
}
