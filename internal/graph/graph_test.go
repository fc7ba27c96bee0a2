package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// randomGraph returns a seeded G(n, p) graph for property tests.
func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestNewAndCounts(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"empty", New(0), 0, 0},
		{"isolated", New(5), 5, 0},
		{"path4", path(4), 4, 3},
		{"cycle5", cycle(5), 5, 5},
		{"k4", complete(4), 4, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.N(); got != tt.n {
				t.Errorf("N() = %d, want %d", got, tt.n)
			}
			if got := tt.g.M(); got != tt.m {
				t.Errorf("M() = %d, want %d", got, tt.m)
			}
			if err := tt.g.Validate(); err != nil {
				t.Errorf("Validate() = %v", err)
			}
		})
	}
}

func TestAddEdgeChecked(t *testing.T) {
	g := New(3)
	if err := g.AddEdgeChecked(0, 1); err != nil {
		t.Fatalf("AddEdgeChecked(0,1) = %v", err)
	}
	if err := g.AddEdgeChecked(0, 1); err == nil {
		t.Error("duplicate edge not rejected")
	}
	if err := g.AddEdgeChecked(1, 0); err == nil {
		t.Error("reversed duplicate edge not rejected")
	}
	if err := g.AddEdgeChecked(1, 1); err == nil {
		t.Error("self-loop not rejected")
	}
	if err := g.AddEdgeChecked(0, 3); err == nil {
		t.Error("out-of-range edge not rejected")
	}
	if g.M() != 1 {
		t.Errorf("M() = %d after failed inserts, want 1", g.M())
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate: ignored, not panic
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := cycle(4)
	if !g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge(0,1) = false, want true")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("second RemoveEdge(0,1) = true, want false")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge still present after removal")
	}
	if g.M() != 3 {
		t.Errorf("M() = %d, want 3", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
}

func TestAddVertex(t *testing.T) {
	g := path(2)
	v := g.AddVertex()
	if v != 2 || g.N() != 3 {
		t.Fatalf("AddVertex() = %d with N = %d, want 2 with N = 3", v, g.N())
	}
	g.AddEdge(v, 0)
	if !g.HasEdge(2, 0) {
		t.Error("edge to new vertex missing")
	}
}

func TestDegrees(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	wants := []int{3, 1, 1, 2, 1}
	for v, want := range wants {
		if got := g.Degree(v); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestEdgesCanonicalOrder(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{3, 2}, {1, 0}, {2, 0}})
	want := [][2]int{{0, 1}, {0, 2}, {2, 3}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("Edges() has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Edges()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := cycle(5)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("mutating clone affected original")
	}
	if !g.Clone().Equal(g) {
		t.Error("Clone() not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	if !path(3).Equal(path(3)) {
		t.Error("identical paths not Equal")
	}
	if path(3).Equal(path(4)) {
		t.Error("different sizes Equal")
	}
	a := MustFromEdges(3, [][2]int{{0, 1}})
	b := MustFromEdges(3, [][2]int{{1, 2}})
	if a.Equal(b) {
		t.Error("different edge sets Equal")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := path(3)
	g.adj[0] = append(g.adj[0], 0) // self-loop corruption
	if err := g.Validate(); err == nil {
		t.Error("Validate() passed on corrupted graph")
	}
	h := path(3)
	h.adj[0] = append(h.adj[0], 2) // asymmetric edge
	if err := h.Validate(); err == nil {
		t.Error("Validate() passed on asymmetric graph")
	}
}

func TestValidateRandomGraphsProperty(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		n := int(rawN%40) + 1
		p := float64(rawP%100) / 100
		g := randomGraph(n, p, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := path(3)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 7) {
		t.Error("HasEdge accepted out-of-range vertices")
	}
}
