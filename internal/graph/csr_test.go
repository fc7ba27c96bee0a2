package graph

import (
	"math/rand"
	"testing"
)

func randomEdges(n int, p float64, rng *rand.Rand) [][2]int {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return edges
}

func TestFreezeMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40)
		g, err := FromEdges(n, randomEdges(n, 0.2, rng))
		if err != nil {
			t.Fatal(err)
		}
		c := g.Freeze()
		if c.N() != g.N() {
			t.Fatalf("CSR n = %d, want %d", c.N(), g.N())
		}
		if len(c.Targets) != 2*g.M() {
			t.Fatalf("CSR arcs = %d, want %d", len(c.Targets), 2*g.M())
		}
		for v := 0; v < n; v++ {
			if c.Degree(v) != g.Degree(v) {
				t.Fatalf("vertex %d: CSR degree %d, want %d", v, c.Degree(v), g.Degree(v))
			}
			row := c.Row(v)
			for i, u := range g.Neighbors(v) {
				if int(row[i]) != u {
					t.Fatalf("vertex %d: CSR row %v, want %v", v, row, g.Neighbors(v))
				}
			}
		}
		if g.CSR() != c {
			t.Fatal("Freeze result not cached")
		}
	}
}

func TestMutationInvalidatesCSR(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}})
	g.Freeze()
	g.AddEdge(2, 3)
	if g.CSR() != nil {
		t.Fatal("AddEdge kept a stale CSR")
	}
	g.Freeze()
	g.RemoveEdge(0, 1)
	if g.CSR() != nil {
		t.Fatal("RemoveEdge kept a stale CSR")
	}
	g.Freeze()
	g.AddVertex()
	if g.CSR() != nil {
		t.Fatal("AddVertex kept a stale CSR")
	}
}

// TestBFSFrozenMatchesUnfrozen locks in that the CSR fast path computes the
// same distances and balls as the adjacency-list path.
func TestBFSFrozenMatchesUnfrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(50)
		g, err := FromEdges(n, randomEdges(n, 0.15, rng))
		if err != nil {
			t.Fatal(err)
		}
		frozen := g.Clone()
		frozen.Freeze()
		for _, src := range []int{0, n / 2, n - 1} {
			a, b := g.BFSFrom(src), frozen.BFSFrom(src)
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("BFSFrom(%d): dist[%d] = %d frozen %d", src, v, a[v], b[v])
				}
			}
			for r := 0; r <= 3; r++ {
				if !EqualSets(g.Ball(src, r), frozen.Ball(src, r)) {
					t.Fatalf("Ball(%d,%d) differs frozen vs not", src, r)
				}
			}
		}
		set := []int{0, n - 1}
		if !EqualSets(collectReached(bfsFromSet(g, set)), collectReached(bfsFromSet(frozen, set))) {
			t.Fatal("BFSFromSet differs frozen vs not")
		}
	}
}

func TestFromEdgesUnchecked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40)
		edges := randomEdges(n, 0.2, rng)
		want, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		// Pollute the input with duplicates, reversed duplicates, and
		// self-loops; the unchecked builder must collapse them all.
		dirty := append([][2]int(nil), edges...)
		for _, e := range edges {
			if rng.Intn(2) == 0 {
				dirty = append(dirty, [2]int{e[1], e[0]})
			}
		}
		if n > 0 {
			dirty = append(dirty, [2]int{0, 0})
		}
		rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
		got := FromEdgesUnchecked(n, dirty)
		if err := got.Validate(); err != nil {
			t.Fatalf("invalid graph: %v", err)
		}
		if !got.Equal(want) {
			t.Fatalf("FromEdgesUnchecked != FromEdges: %v vs %v", got, want)
		}
	}
}

func TestFromEdgesUncheckedEmpty(t *testing.T) {
	g := FromEdgesUnchecked(0, nil)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph = %v", g)
	}
	g = FromEdgesUnchecked(3, nil)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("edgeless graph = %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
