package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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
	}
}

// TestFreezeReflectsMutation checks that Freeze after AddEdge, RemoveEdge
// or AddVertex builds the mutated graph, and that a CSR frozen earlier
// keeps the graph as it was.
func TestFreezeReflectsMutation(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}})
	before := g.Freeze()
	steps := []struct {
		name   string
		mutate func()
		want   *CSR
	}{
		{"AddEdge", func() { g.AddEdge(2, 3) }, CSRFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})},
		{"RemoveEdge", func() { g.RemoveEdge(0, 1) }, CSRFromEdges(4, [][2]int{{1, 2}, {2, 3}})},
		{"AddVertex", func() { g.AddVertex() }, CSRFromEdges(5, [][2]int{{1, 2}, {2, 3}})},
	}
	for _, st := range steps {
		st.mutate()
		if got := g.Freeze(); !reflect.DeepEqual(got, st.want) {
			t.Fatalf("Freeze after %s = %+v, want %+v", st.name, got, st.want)
		}
	}
	if want := CSRFromEdges(4, [][2]int{{0, 1}, {1, 2}}); !reflect.DeepEqual(before, want) {
		t.Fatalf("an earlier Freeze changed under mutation: %+v, want %+v", before, want)
	}
}

// TestFreezeConcurrentReaders runs Freeze, BFSFrom and Diameter on one
// graph from several goroutines; under -race it checks that every
// accessor only reads the graph.
func TestFreezeConcurrentReaders(t *testing.T) {
	g := New(6)
	for v := 0; v+1 < 6; v++ {
		g.AddEdge(v, v+1)
	}
	want := CSRFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if c := g.Freeze(); !reflect.DeepEqual(c, want) {
					errs <- "Freeze built a different CSR"
					return
				}
				if d := g.BFSFrom(0)[5]; d != 5 {
					errs <- fmt.Sprintf("BFSFrom(0)[5] = %d, want 5", d)
					return
				}
				if d := g.Diameter(); d != 5 {
					errs <- fmt.Sprintf("Diameter = %d, want 5", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBFSFrozenMatchesUnfrozen locks in that the CSR's ball marking
// computes the same balls as the adjacency-list BFS.
func TestBFSFrozenMatchesUnfrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewArena()
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(50)
		g, err := FromEdges(n, randomEdges(n, 0.15, rng))
		if err != nil {
			t.Fatal(err)
		}
		c := g.Freeze()
		for _, src := range []int{0, n / 2, n - 1} {
			for r := -1; r <= 3; r++ {
				want := collectReached(g.boundedBFS([]int{src}, r))
				var got []int
				for _, v := range c.MarkBall(src, -1, r, a) {
					got = append(got, int(v))
				}
				sort.Ints(got)
				if !EqualSets(got, want) {
					t.Fatalf("ball(%d,%d): CSR %v, adjacency lists %v", src, r, got, want)
				}
			}
		}
		want := collectReached(bfsFromSet(g, []int{0, n - 1}))
		var got []int
		for _, v := range c.MarkBall(0, n-1, -1, a) {
			got = append(got, int(v))
		}
		sort.Ints(got)
		if !EqualSets(got, want) {
			t.Fatal("two-source ball differs between CSR and adjacency lists")
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
