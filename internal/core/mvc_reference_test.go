package core

// The spec oracle for MVCAlg1: the vertex-cover variant of Algorithm 1 run
// step by step on the mutable adjacency representation, as the driver ran
// before it moved onto the CSR pipeline. TestMVCAlg1MatchesSequential pins
// the pipeline to it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"localmds/internal/cuts"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// mvcAlg1Sequential is the original adjacency-list implementation of the
// Algorithm 1 vertex-cover variant: local 1-cuts by one induced ball per
// vertex, local 2-cuts by one induced pair ball per pair within distance
// R2 (cuts.IsLocalTwoCut), then an exact cover per residual component on
// an induced copy, under the same BruteNodeBudget as the pipeline.
func mvcAlg1Sequential(g *graph.Graph, p Params) (*MVCResult, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	x := cuts.LocalOneCuts(g, p.R1)
	var c2 []int
	{
		seen := make(map[int]bool)
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Ball(u, p.R2) {
				if v > u && cuts.IsLocalTwoCut(g, u, v, p.R2) {
					seen[u] = true
					seen[v] = true
				}
			}
		}
		for v := range seen {
			c2 = append(c2, v)
		}
		sort.Ints(c2)
	}
	s1 := graph.SortedUnion(x, c2)
	res := &MVCResult{X: x, C2: c2}

	inS1 := make([]bool, g.N())
	for _, v := range s1 {
		inS1[v] = true
	}
	// Residual vertices incident to an uncovered edge.
	var rest []int
	for v := 0; v < g.N(); v++ {
		if inS1[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if !inS1[u] {
				rest = append(rest, v)
				break
			}
		}
	}
	sol := append([]int(nil), s1...)
	for _, comp := range g.ComponentsOfSubset(rest) {
		res.Components = append(res.Components, comp)
		sub, idx := g.Induced(comp)
		if d := sub.Diameter(); d > res.MaxComponentDiameter {
			res.MaxComponentDiameter = d
		}
		var chosen []int
		if len(comp) <= p.MaxBruteComponent {
			chosen, err = mds.ExactMVC(sub.Freeze(), mds.ExactOptions{MaxNodes: BruteNodeBudget})
			if err != nil {
				res.BruteFallbacks++
				chosen = mds.MatchingVertexCover(sub.Freeze())
			}
		} else {
			res.BruteFallbacks++
			chosen = mds.MatchingVertexCover(sub.Freeze())
		}
		for _, v := range chosen {
			sol = append(sol, idx[v])
		}
	}
	res.S = graph.Dedup(sol)
	return res, nil
}

// TestMVCAlg1MatchesSequential pins the CSR pipeline to the adjacency-list
// oracle: every field but StageStats is identical, at r1 ∈ 1..4,
// r2 ∈ 2..4 and 1/2/3/8 workers, on the Table 1 families without twin
// reduction, a twin-heavy clique with pendants, a disconnected union, the
// degenerate graphs, and a forced matching fallback.
func TestMVCAlg1MatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	regular, err := gen.RegularLike(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	union := graph.DisjointUnion(
		ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 40, T: 5}, rng),
		graph.DisjointUnion(gen.Grid(3, 5), gen.RandomCactus(25, rng)),
	)
	tests := []struct {
		name     string
		g        *graph.Graph
		maxBrute int
	}{
		{"path", gen.Path(20), 0},
		{"cycle", gen.Cycle(17), 0},
		{"tree", gen.RandomTree(40, rng), 0},
		{"cactus", gen.RandomCactus(40, rng), 0},
		{"outerplanar", gen.MaximalOuterplanar(20, rng), 0},
		{"grid", gen.Grid(5, 6), 0},
		{"regular", regular, 0},
		{"ding-mixed", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 50, T: 5}, rng), 0},
		{"ding-strips", ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 50, T: 5}, rng), 0},
		{"cliquependants", gen.CliquePendants(8), 0},
		{"union", union, 0},
		{"k4", gen.Complete(4), 0},
		{"edgeless", graph.New(4), 0},
		{"single", gen.Path(1), 0},
		{"empty", graph.New(0), 0},
		{"matching-fallback", gen.Grid(5, 6), 3},
	}
	for _, tt := range tests {
		for r1 := 1; r1 <= 4; r1++ {
			for r2 := 2; r2 <= 4; r2++ {
				p := Params{R1: r1, R2: r2, MaxBruteComponent: tt.maxBrute}
				want, err := mvcAlg1Sequential(tt.g, p)
				if err != nil {
					t.Fatalf("%s r1=%d r2=%d: oracle: %v", tt.name, r1, r2, err)
				}
				if !mds.IsVertexCover(tt.g.Freeze(), want.S) {
					t.Fatalf("%s r1=%d r2=%d: oracle cover %v is not a vertex cover", tt.name, r1, r2, want.S)
				}
				for _, w := range []int{1, 2, 3, 8} {
					got, err := MVCAlg1(tt.g.Freeze(), p, PipelineOptions{Workers: w})
					if err != nil {
						t.Fatalf("%s r1=%d r2=%d workers=%d: %v", tt.name, r1, r2, w, err)
					}
					got.StageStats = nil
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s r1=%d r2=%d workers=%d:\n got %s\nwant %s", tt.name, r1, r2, w, mvcFields(got), mvcFields(want))
					}
				}
			}
		}
	}
}

// mvcFields renders the compared MVCResult fields for a failure message.
func mvcFields(r *MVCResult) string {
	return fmt.Sprintf("S=%v X=%v C2=%v Components=%v MaxComponentDiameter=%d BruteFallbacks=%d",
		r.S, r.X, r.C2, r.Components, r.MaxComponentDiameter, r.BruteFallbacks)
}
