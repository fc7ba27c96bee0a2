package core

import (
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
)

// TestRunAlg1MatchesCentralized pins the simulator to the centralized
// driver and to the spec oracle Alg1Sequential: the process runs the
// driver's own CSR steps on its view, so the adjacency-list spec is the
// independent side. The second params value caps brute force at two
// vertices, so components fall back to the greedy; R1 = 2, R2 = 4 takes
// the cut kernel's r1 != r2 branch, and at 40 every ball saturates, so
// the kernel's ball-equality skip runs.
func TestRunAlg1MatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(14)},
		{"cycle", gen.Cycle(12)},
		{"tree", gen.RandomTree(20, rng)},
		{"cactus", gen.RandomCactus(18, rng)},
		{"cliquependants", gen.CliquePendants(5)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 20, T: 5}, rng)},
		{"twins", gen.Complete(5)},
		{"grid", gen.Grid(6, 6)},
		// C7's dominating set at R1 = 2, R2 = 4 differs from the one at
		// R1 = 4, R2 = 2, so this case tells the two radii apart.
		{"cycle7", gen.Cycle(7)},
	}
	params := []struct {
		suffix string
		p      Params
	}{
		{"", Params{R1: 3, R2: 3}},
		{"/brute2", Params{R1: 3, R2: 3, MaxBruteComponent: 2}},
		{"/r2-4", Params{R1: 2, R2: 4}},
		{"/r40", Params{R1: 40, R2: 40}},
	}
	fallbacks := 0
	for _, pc := range params {
		for _, tt := range tests {
			t.Run(tt.name+pc.suffix, func(t *testing.T) {
				want, err := Alg1CSR(tt.g.Freeze(), pc.p, PipelineOptions{})
				if err != nil {
					t.Fatalf("Alg1: %v", err)
				}
				spec, err := Alg1Sequential(tt.g, pc.p)
				if err != nil {
					t.Fatalf("Alg1Sequential: %v", err)
				}
				if pc.suffix == "/brute2" {
					fallbacks += want.BruteFallbacks
				}
				got, stats, err := RunAlg1(tt.g.Freeze(), nil, pc.p, local.Sequential)
				if err != nil {
					t.Fatalf("RunAlg1: %v", err)
				}
				if !graph.EqualSets(got, want.S) {
					t.Errorf("process = %v, centralized = %v", got, want.S)
				}
				if !graph.EqualSets(got, spec.S) {
					t.Errorf("process = %v, spec = %v", got, spec.S)
				}
				if stats.Rounds > want.RoundsEstimate {
					t.Errorf("rounds %d exceed estimate %d", stats.Rounds, want.RoundsEstimate)
				}
			})
		}
	}
	if fallbacks == 0 {
		t.Error("no case reached the greedy fallback")
	}
}

func TestRunAlg1EnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 24, T: 5}, rng)
	p := Params{R1: 3, R2: 3}
	a, sa, err := RunAlg1(g.Freeze(), nil, p, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := RunAlg1(g.Freeze(), nil, p, local.Parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualSets(a, b) {
		t.Errorf("engines disagree: %v vs %v", a, b)
	}
	if sa != sb {
		t.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
}

func TestRunAlg1PermutedIDs(t *testing.T) {
	// With permuted identifiers the tie-breaking changes, so the set may
	// differ from the centralized reference — but it must still dominate
	// and have the same size class (both are outputs of the same
	// brute-force optimum per component plus identical cut phases; only
	// twin representatives differ).
	g := gen.CliquePendants(5)
	n := g.N()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i*7 + 3) % (n * 7)
	}
	// Ensure distinct; (i*7+3) mod 63 for i < 9 is injective.
	got, _, err := RunAlg1(g.Freeze(), ids, Params{R1: 3, R2: 3}, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if !mds.IsDominatingSetCSR(g.Freeze(), got) {
		t.Errorf("permuted-id run returned non-dominating %v", got)
	}
}

func TestRunAlg1RoundsScaleWithRadius(t *testing.T) {
	g := gen.Path(40)
	small, ssmall, err := RunAlg1(g.Freeze(), nil, Params{R1: 2, R2: 2}, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	large, slarge, err := RunAlg1(g.Freeze(), nil, Params{R1: 6, R2: 6}, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if !mds.IsDominatingSetCSR(g.Freeze(), small) || !mds.IsDominatingSetCSR(g.Freeze(), large) {
		t.Fatal("not dominating")
	}
	if ssmall.Rounds >= slarge.Rounds {
		t.Errorf("rounds should grow with radius: %d vs %d", ssmall.Rounds, slarge.Rounds)
	}
}

func TestRunAlg1SingletonAndTiny(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		g := gen.Path(n)
		got, _, err := RunAlg1(g.Freeze(), nil, Params{R1: 2, R2: 2}, local.Sequential)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !mds.IsDominatingSetCSR(g.Freeze(), got) {
			t.Errorf("n=%d: %v not dominating", n, got)
		}
	}
}
