package cuts

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

func TestIsMinimalTwoCut(t *testing.T) {
	c6 := gen.Cycle(6)
	tests := []struct {
		name string
		g    *graph.Graph
		u, v int
		want bool
	}{
		{"C6 opposite", c6, 0, 3, true},
		{"C6 adjacent", c6, 0, 1, false}, // removing them leaves one path
		{"C6 distance2", c6, 0, 2, true}, // splits {1} from {3,4,5}
		{"same vertex", c6, 2, 2, false},
		{"K4 any pair", gen.Complete(4), 0, 1, false},
		{"path mid", gen.Path(5), 1, 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsMinimalTwoCut(tt.g, tt.u, tt.v); got != tt.want {
				t.Errorf("IsMinimalTwoCut(%d,%d) = %v, want %v", tt.u, tt.v, got, tt.want)
			}
		})
	}
}

func TestMinimalTwoCutsCycle(t *testing.T) {
	// In C5, every non-adjacent pair is a minimal 2-cut: 5 such pairs.
	got := MinimalTwoCuts(gen.Cycle(5))
	if len(got) != 5 {
		t.Errorf("C5 has %d minimal 2-cuts, want 5: %v", len(got), got)
	}
}

func TestMinimalTwoCutsCliquePendants(t *testing.T) {
	// The §4 instance: every pendant x_v is separated by the 2-cut {0, v},
	// so there are q-1 minimal 2-cuts at least.
	g := gen.CliquePendants(6)
	cuts := MinimalTwoCuts(g)
	found := 0
	for _, c := range cuts {
		if c.U == 0 && c.V >= 1 && c.V <= 5 {
			found++
		}
	}
	if found != 5 {
		t.Errorf("found %d cuts {0,v}, want 5 (cuts: %v)", found, cuts)
	}
}

func TestCrossing(t *testing.T) {
	c6 := gen.Cycle(6)
	// Opposite cuts {0,3} and {1,4} cross in C6.
	if !Crossing(c6, TwoCut{0, 3}, TwoCut{1, 4}) {
		t.Error("opposite C6 cuts should cross")
	}
	// {0,2} and {3,5} do not cross ({3,5} lies on one side of {0,2}).
	if Crossing(c6, TwoCut{0, 2}, TwoCut{3, 5}) {
		t.Error("nested C6 cuts should not cross")
	}
	// Sharing a vertex: never crossing.
	if Crossing(c6, TwoCut{0, 3}, TwoCut{0, 2}) {
		t.Error("cuts sharing a vertex cannot cross")
	}
}

func TestGloballyInterestingCliquePendants(t *testing.T) {
	// In CliquePendants, the cut {0, v} separates only x_v; all other
	// components... there is one other component (the rest), and the rest
	// is entirely adjacent to 0. So at most one component has a vertex
	// non-adjacent to 0 => v is NOT interesting via u=0. This is the
	// paper's motivating example: unboundedly many 2-cut vertices, none
	// interesting.
	g := gen.CliquePendants(8)
	got := GloballyInterestingVertices(g)
	for _, v := range got {
		if v >= 1 && v < 8 {
			t.Errorf("clique vertex %d reported interesting; paper argues none should be chargeable to u=0", v)
		}
	}
}

func TestGloballyInterestingLongPath(t *testing.T) {
	// On a path, interior pairs {i, j} with j >= i+2 separate the middle:
	// vertex i is interesting via the cut {i, i+2}: N[i] ⊈ N[i+2] and the
	// two outer components contain vertices non-adjacent to i+2 for a long
	// enough path.
	g := gen.Path(9)
	got := GloballyInterestingVertices(g)
	if len(got) == 0 {
		t.Fatal("long path should have interesting vertices")
	}
	for _, v := range got {
		if v == 0 || v == 8 {
			t.Errorf("endpoint %d cannot be in a 2-cut", v)
		}
	}
}

// Property: a minimal 2-cut really separates: removing it increases the
// number of components.
func TestTwoCutsSeparateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(13, 0.15, rng)
		for _, c := range MinimalTwoCuts(g) {
			if without(g, c.U, c.V).NumComponents() < 2 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: crossing is symmetric.
func TestCrossingSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(11, 0.2, rng)
		cuts := MinimalTwoCuts(g)
		for i := 0; i < len(cuts) && i < 6; i++ {
			for j := i + 1; j < len(cuts) && j < 6; j++ {
				if Crossing(g, cuts[i], cuts[j]) != Crossing(g, cuts[j], cuts[i]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
