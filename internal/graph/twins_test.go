package graph

import (
	"testing"
	"testing/quick"
)

func TestTrueTwinClasses(t *testing.T) {
	// Two triangles sharing nothing: each triangle is one class of 3.
	g := DisjointUnion(complete(3), complete(3))
	classes := g.TrueTwinClasses()
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2: %v", len(classes), classes)
	}
	if !EqualSets(classes[0], []int{0, 1, 2}) || !EqualSets(classes[1], []int{3, 4, 5}) {
		t.Errorf("classes = %v", classes)
	}
}

func TestTwinReductionK4(t *testing.T) {
	g := complete(4)
	r, mapping := g.TwinReduction()
	if r.N() != 1 {
		t.Fatalf("K4 reduces to %d vertices, want 1", r.N())
	}
	if mapping[0] != 0 {
		t.Errorf("representative = %d, want 0", mapping[0])
	}
}

func TestTwinReductionIterates(t *testing.T) {
	// A graph where one round of twin removal creates new twins:
	// K4 with two pendant vertices attached to {0,1,2,3}... simpler:
	// vertices {0,1} twins; after merging, {0,2} become twins.
	// Construct: 0-1 edge, both adjacent to 2 and 3; 2-3 edge; 2,3 adjacent
	// to everything. 0,1 twins (N[0]=N[1]={0,1,2,3}). After removing 1:
	// N[0]={0,2,3}, N[2]=N[3]={0,2,3}: all three mutually twins.
	g := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	r, _ := g.TwinReduction()
	if r.N() != 1 {
		t.Errorf("K4-like graph reduced to %d vertices, want 1", r.N())
	}
}

func TestTwinReductionNoTwins(t *testing.T) {
	g := path(5)
	r, mapping := g.TwinReduction()
	if !r.Equal(g) {
		t.Error("twin-free graph changed by reduction")
	}
	for i, v := range mapping {
		if v != i {
			t.Errorf("mapping[%d] = %d, want identity", i, v)
		}
	}
}

// hasTrueTwins reports whether g contains at least one pair of distinct
// true twins: the fixpoint condition TwinReduction must reach.
func hasTrueTwins(g *Graph) bool {
	for _, c := range g.TrueTwinClasses() {
		if len(c) > 1 {
			return true
		}
	}
	return false
}

func TestHasTrueTwins(t *testing.T) {
	if !hasTrueTwins(complete(3)) {
		t.Error("K3 should have true twins")
	}
	if hasTrueTwins(path(4)) {
		t.Error("P4 should not have true twins")
	}
}

// Property: the reduced graph never has true twins, and reduction is
// idempotent.
func TestTwinReductionFixpointProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%18) + 1
		g := randomGraph(n, 0.5, seed)
		r, mapping := g.TwinReduction()
		if hasTrueTwins(r) {
			return false
		}
		if len(mapping) != r.N() {
			return false
		}
		r2, _ := r.TwinReduction()
		return r2.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every original vertex is dominated in G by its class
// representative: for every v there is a representative u with N[v] ⊇ ... —
// concretely, the representatives of the classes form a graph whose MDS
// equals MDS(G) (checked in the mds package); here we check the weaker
// structural fact that every removed vertex has a kept true twin at the
// moment of removal, which implies every vertex of G is adjacent (or equal)
// to some kept representative of its class.
func TestTwinClassesCoverProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%18) + 1
		g := randomGraph(n, 0.5, seed)
		classes := g.TrueTwinClasses()
		covered := make([]bool, n)
		for _, c := range classes {
			rep := c[0]
			for _, v := range c {
				if v == rep || g.HasEdge(rep, v) {
					covered[v] = true
				}
			}
		}
		for _, ok := range covered {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
