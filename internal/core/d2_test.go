package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
)

func TestD2IsDominating(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(20)},
		{"cycle", gen.Cycle(15)},
		{"tree", gen.RandomTree(40, rng)},
		{"cactus", gen.RandomCactus(40, rng)},
		{"cliquependants", gen.CliquePendants(7)},
		{"complete", gen.Complete(6)},
		{"star", gen.Star(9)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 50, T: 4}, rng)},
		{"single", gen.Path(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := D2(tt.g.Freeze())
			if !mds.IsDominatingSetCSR(tt.g.Freeze(), res.S) {
				t.Errorf("D2 set %v is not dominating", res.S)
			}
		})
	}
}

func TestD2RatioBound(t *testing.T) {
	// Theorem 4.4: (2t-1)-approximation on K_{2,t}-minor-free graphs.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 6; i++ {
		tParam := 5
		g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 50, T: tParam}, rng)
		res := D2(g.Freeze())
		opt, err := mds.ExactMDS(g.Freeze(), mds.ExactOptions{})
		if err != nil {
			t.Fatalf("ExactMDS: %v", err)
		}
		bound := (2*tParam - 1) * len(opt)
		if len(res.S) > bound {
			t.Errorf("instance %d: |D2| = %d exceeds (2t-1) OPT = %d", i, len(res.S), bound)
		}
	}
}

func TestD2CliquePendants(t *testing.T) {
	// MDS = 1 (vertex 0). D2 after twin reduction must stay within the
	// (2t-1) bound for the appropriate t. CliquePendants(q) contains
	// K_{2,q-2}... as a K_{2,t}-minor-free statement we simply check D2
	// returns a valid small set.
	g := gen.CliquePendants(6)
	res := D2(g.Freeze())
	if !mds.IsDominatingSetCSR(g.Freeze(), res.S) {
		t.Fatal("not dominating")
	}
}

func TestD2StarAndComplete(t *testing.T) {
	// Star: the center dominates; leaves have N[leaf] ⊆ N[center], so
	// D2 = {center}: exactly optimal.
	res := D2(gen.Star(8).Freeze())
	if len(res.S) != 1 || res.S[0] != 0 {
		t.Errorf("star D2 = %v, want [0]", res.S)
	}
	// Complete graph: collapses to one vertex by twin reduction.
	res = D2(gen.Complete(7).Freeze())
	if len(res.S) != 1 {
		t.Errorf("K7 D2 = %v, want singleton", res.S)
	}
}

func TestRunD2MatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(12)},
		{"cycle", gen.Cycle(10)},
		{"cactus", gen.RandomCactus(25, rng)},
		{"cliquependants", gen.CliquePendants(5)},
		{"complete", gen.Complete(5)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.BlockForest, N: 30, T: 4}, rng)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want := D2(tt.g.Freeze())
			got, stats, err := RunD2(tt.g.Freeze(), nil, local.Sequential)
			if err != nil {
				t.Fatalf("RunD2: %v", err)
			}
			if !graph.EqualSets(got, want.S) {
				t.Errorf("process = %v, centralized = %v", got, want.S)
			}
			if stats.Rounds != D2GatherRounds {
				t.Errorf("rounds = %d, want %d", stats.Rounds, D2GatherRounds)
			}
		})
	}
}

func TestRunD2EnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: 5}, rng)
	a, _, err := RunD2(g.Freeze(), nil, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunD2(g.Freeze(), nil, local.Parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.EqualSets(a, b) {
		t.Errorf("engines disagree")
	}
}

// Property: D2 always dominates, on arbitrary connected graphs (Lemma 5.19
// does not need minor-freeness).
func TestD2AlwaysDominatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(25, 0.12, rng)
		return mds.IsDominatingSetCSR(g.Freeze(), D2(g.Freeze()).S)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the distributed and centralized versions agree on random
// cacti (identity identifiers).
func TestRunD2AgreesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomCactus(20, rng)
		want := D2(g.Freeze())
		got, _, err := RunD2(g.Freeze(), nil, local.Sequential)
		if err != nil {
			return false
		}
		return graph.EqualSets(got, want.S)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
