package core

import (
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

func TestBuildMinorBoundBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(15)},
		{"cycle", gen.Cycle(12)},
		{"cactus", gen.RandomCactus(30, rng)},
		{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 35, T: 5}, rng)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := BuildMinorBound(tt.g)
			if err != nil {
				t.Fatalf("BuildMinorBound: %v", err)
			}
			if err := res.H.Validate(); err != nil {
				t.Fatalf("H invalid: %v", err)
			}
			// A and B disjoint and inside H.
			if intersects(graph.Dedup(res.A), graph.Dedup(res.B)) {
				t.Error("A and B overlap")
			}
			for _, v := range append(append([]int(nil), res.A...), res.B...) {
				if v < 0 || v >= res.H.N() {
					t.Errorf("vertex %d outside H", v)
				}
			}
			if len(res.B) != len(res.D) {
				t.Errorf("|B| = %d != |D| = %d", len(res.B), len(res.D))
			}
		})
	}
}

func TestVerifyMinorBoundOnK2tFree(t *testing.T) {
	// Lemma 5.18's conclusion |A| <= (t-1)|B| must hold on
	// K_{2,t}-minor-free instances.
	rng := rand.New(rand.NewSource(17))
	tParam := 5
	for i := 0; i < 6; i++ {
		g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: tParam}, rng)
		res, err := BuildMinorBound(g)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := VerifyMinorBound(res, tParam); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
	}
}

func TestVerifyMinorBoundEdgelessA(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := gen.RandomCactus(25, rng)
	res, err := BuildMinorBound(g)
	if err != nil {
		t.Fatal(err)
	}
	// Cacti are K_{2,3}-minor-free: |A| <= 2|B|.
	if err := VerifyMinorBound(res, 3); err != nil {
		t.Errorf("cactus bound: %v", err)
	}
}

func TestMinorBoundD2Accounting(t *testing.T) {
	g := gen.Star(6)
	res, err := BuildMinorBound(g)
	if err != nil {
		t.Fatal(err)
	}
	// Star: D2 = {center}; D = {center}: A empty.
	if res.D2Count != 1 {
		t.Errorf("D2Count = %d, want 1", res.D2Count)
	}
	if len(res.A) != 0 {
		t.Errorf("A = %v, want empty", res.A)
	}
}
