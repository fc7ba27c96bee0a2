package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

func TestRunMVCD2MatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(12)},
		{"cycle", gen.Cycle(9)},
		{"triangle", gen.Complete(3)},
		{"complete", gen.Complete(5)},
		{"cactus", gen.RandomCactus(25, rng)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 30, T: 4}, rng)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want := MVCD2(tt.g.Freeze())
			got, stats, err := RunMVCD2(tt.g.Freeze(), nil)
			if err != nil {
				t.Fatalf("RunMVCD2: %v", err)
			}
			if !graph.EqualSets(got, want.S) {
				t.Errorf("process = %v, centralized = %v", got, want.S)
			}
			if stats.Rounds != MVCD2GatherRounds {
				t.Errorf("rounds = %d, want %d", stats.Rounds, MVCD2GatherRounds)
			}
		})
	}
}

func TestRunMVCAlg1IsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(14)},
		{"cycle", gen.Cycle(11)},
		{"cactus", gen.RandomCactus(20, rng)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 24, T: 5}, rng)},
	}
	p := Params{R1: 3, R2: 3}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _, err := RunMVCAlg1(tt.g.Freeze(), nil, p)
			if err != nil {
				t.Fatalf("RunMVCAlg1: %v", err)
			}
			if !mds.IsVertexCover(tt.g.Freeze(), got) {
				t.Errorf("process output %v is not a cover", got)
			}
		})
	}
}

func TestRunMVCAlg1MatchesCentralized(t *testing.T) {
	// The process runs MVCAlg1's own CSR steps on its view and the same
	// component solve; with identity identifiers the residual component
	// instances coincide, so outputs are equal. The spec oracle
	// mvcAlg1Sequential is the independent side. R1 = 2, R2 = 4 takes the
	// cut kernel's r1 != r2 branch; at 40 every ball saturates.
	rng := rand.New(rand.NewSource(59))
	var graphs []*graph.Graph
	for i := 0; i < 4; i++ {
		graphs = append(graphs, gen.RandomCactus(18, rng))
	}
	for _, p := range []Params{{R1: 3, R2: 3}, {R1: 2, R2: 4}, {R1: 40, R2: 40}} {
		for i, g := range graphs {
			want, err := MVCAlg1(g.Freeze(), p, PipelineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			spec, err := mvcAlg1Sequential(g, p)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := RunMVCAlg1(g.Freeze(), nil, p)
			if err != nil {
				t.Fatal(err)
			}
			if !graph.EqualSets(got, want.S) {
				t.Errorf("r1=%d r2=%d instance %d: process %v vs centralized %v", p.R1, p.R2, i, got, want.S)
			}
			if !graph.EqualSets(got, spec.S) {
				t.Errorf("r1=%d r2=%d instance %d: process %v vs spec %v", p.R1, p.R2, i, got, spec.S)
			}
		}
	}
}

func TestRunMVCEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 30, T: 5}, rng)
	var a, b, c, d []int
	var err error
	atProcs(1, func() { a, _, err = RunMVCD2(g.Freeze(), nil) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(4, func() { b, _, err = RunMVCD2(g.Freeze(), nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualSets(a, b) {
		t.Error("MVCD2 engines disagree")
	}
	atProcs(1, func() { c, _, err = RunMVCAlg1(g.Freeze(), nil, Params{R1: 3, R2: 3}) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(4, func() { d, _, err = RunMVCAlg1(g.Freeze(), nil, Params{R1: 3, R2: 3}) })
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualSets(c, d) {
		t.Error("MVCAlg1 engines disagree")
	}
}

// Property: both distributed MVC variants return covers on random graphs.
func TestRunMVCCoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(16, 0.15, rng)
		a, _, err := RunMVCD2(g.Freeze(), nil)
		if err != nil || !mds.IsVertexCover(g.Freeze(), a) {
			return false
		}
		b, _, err := RunMVCAlg1(g.Freeze(), nil, Params{R1: 2, R2: 2})
		return err == nil && mds.IsVertexCover(g.Freeze(), b)
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
