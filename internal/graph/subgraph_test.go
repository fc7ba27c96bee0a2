package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestInduced(t *testing.T) {
	g := cycle(6)
	h, idx := g.Induced([]int{0, 1, 2, 4})
	if h.N() != 4 {
		t.Fatalf("Induced N = %d, want 4", h.N())
	}
	if !EqualSets(idx, []int{0, 1, 2, 4}) {
		t.Errorf("idx = %v", idx)
	}
	// Edges 0-1 and 1-2 survive; 4 is isolated inside the subgraph.
	if h.M() != 2 {
		t.Errorf("Induced M = %d, want 2", h.M())
	}
	if h.Degree(3) != 0 { // new index 3 = original vertex 4
		t.Errorf("vertex 4 should be isolated in induced subgraph")
	}
}

func TestInducedDedup(t *testing.T) {
	g := path(4)
	h, idx := g.Induced([]int{2, 0, 2, 1})
	if h.N() != 3 || !EqualSets(idx, []int{0, 1, 2}) {
		t.Errorf("Induced with dups: N=%d idx=%v", h.N(), idx)
	}
}

func TestInducedBall(t *testing.T) {
	g := path(9)
	h, idx := g.InducedBall(4, 2)
	if h.N() != 5 || !EqualSets(idx, []int{2, 3, 4, 5, 6}) {
		t.Fatalf("InducedBall = %v, idx %v", h, idx)
	}
	if h.M() != 4 {
		t.Errorf("InducedBall M = %d, want 4 (path)", h.M())
	}
}

// deleteVertices returns the graph g - s obtained by deleting all vertices
// of s, plus the mapping from new indices to original ones.
func deleteVertices(g *Graph, s []int) (*Graph, []int) {
	keep := make([]int, 0, g.N())
	for v := range g.N() {
		if !slices.Contains(s, v) {
			keep = append(keep, v)
		}
	}
	return g.Induced(keep)
}

func TestDelete(t *testing.T) {
	g := cycle(5)
	h, idx := deleteVertices(g, []int{0})
	if h.N() != 4 || h.M() != 3 {
		t.Errorf("Delete: n=%d m=%d, want 4, 3", h.N(), h.M())
	}
	if !EqualSets(idx, []int{1, 2, 3, 4}) {
		t.Errorf("idx = %v", idx)
	}
}

func TestDisjointUnion(t *testing.T) {
	u := DisjointUnion(path(3), cycle(3))
	if u.N() != 6 || u.M() != 5 {
		t.Fatalf("DisjointUnion: n=%d m=%d, want 6, 5", u.N(), u.M())
	}
	if u.HasEdge(2, 3) {
		t.Error("DisjointUnion connected the two parts")
	}
	if !u.HasEdge(3, 4) || !u.HasEdge(3, 5) {
		t.Error("second part edges missing/shifted incorrectly")
	}
}

// refDisjointUnion is DisjointUnion as it was: every edge of both
// operands re-added to an empty graph.
func refDisjointUnion(g, h *Graph) *Graph {
	u := New(g.N() + h.N())
	g.VisitEdges(func(a, b int) { u.AddEdge(a, b) })
	off := g.N()
	h.VisitEdges(func(a, b int) { u.AddEdge(a+off, b+off) })
	return u
}

// TestDisjointUnionMatchesReference compares the row-copying union with
// the per-edge reference on random operands, empty and edgeless ones
// included, and checks that the union shares no storage with them.
func TestDisjointUnionMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(int(seed%9), 0.4, seed)
		h := randomGraph(int(seed*7%23), 0.2, seed+1000)
		got, want := DisjointUnion(g, h), refDisjointUnion(g, h)
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: union %v differs from the reference %v", seed, got, want)
		}
		a, b := got.Freeze(), want.Freeze()
		if !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Targets, b.Targets) {
			t.Fatalf("seed %d: union CSR differs from the reference", seed)
		}
		gc, hc := g.Clone(), h.Clone()
		for _, e := range got.Edges() {
			got.RemoveEdge(e[0], e[1])
		}
		if !g.Equal(gc) || !h.Equal(hc) {
			t.Fatalf("seed %d: emptying the union changed an operand", seed)
		}
	}
}

func TestIdentifyVertices(t *testing.T) {
	// Two disjoint edges; identify one endpoint of each -> path of 3.
	g := MustFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	h, reps := IdentifyVertices(g, [][]int{{1, 2}})
	if h.N() != 3 || h.M() != 2 {
		t.Fatalf("IdentifyVertices: n=%d m=%d, want 3, 2", h.N(), h.M())
	}
	if !EqualSets(reps, []int{0, 1, 3}) {
		t.Errorf("reps = %v", reps)
	}
}

// Property: Induced on the full vertex set is the identity.
func TestInducedIdentityProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%20) + 1
		g := randomGraph(n, 0.3, seed)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		h, _ := g.Induced(all)
		return h.Equal(g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
