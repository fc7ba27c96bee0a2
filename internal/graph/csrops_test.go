package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomGraph builds a connected-ish random instance for op equivalence.
func opsRandomGraph(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func toInts(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

// sortedBall returns N^r[v] from MarkBall, ascending.
func sortedBall(c *CSR, v, r int, a *Arena) []int32 {
	ball := slices.Clone(c.MarkBall(v, -1, r, a))
	slices.Sort(ball)
	return ball
}

func TestCSRMarkBallMatchesBall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := opsRandomGraph(24, 0.08, rng)
		c := g.Freeze()
		a := NewArena()
		for v := 0; v < g.N(); v++ {
			for _, r := range []int{0, 1, 2, 4} {
				want := g.Ball(v, r)
				got := toInts(sortedBall(c, v, r, a))
				if !slices.Equal(got, want) {
					t.Fatalf("Ball(%d, %d) = %v, want %v", v, r, got, want)
				}
			}
		}
	}
}

func TestCSRMarkBall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := opsRandomGraph(30, 0.08, rng)
	c := g.Freeze()
	a := NewArena()
	for trial := 0; trial < 30; trial++ {
		u, v := rng.Intn(30), rng.Intn(30)
		want := g.BallOfSet([]int{u, v}, 3)
		got := toInts(c.MarkBall(u, v, 3, a))
		if !EqualSets(Dedup(got), want) || len(got) != len(want) {
			t.Fatalf("MarkBall(%d, %d, 3) = %v, want %v", u, v, got, want)
		}
		if got := toInts(c.MarkBall(u, -1, 2, a)); !EqualSets(Dedup(got), g.Ball(u, 2)) {
			t.Fatalf("MarkBall(%d, -1, 2) = %v, want %v", u, got, g.Ball(u, 2))
		}
	}
}

// pairBallComponents is the spec for the ball labelings: the component IDs of
// g[N^r[{u, v}]] - {u, v} (v < 0: g[N^r[u]] - u), indexed by original
// vertex, with -1 outside that graph, plus the component count.
func pairBallComponents(g *Graph, u, v, r int) ([]int, int) {
	cut := []int{u}
	if v >= 0 {
		cut = append(cut, v)
	}
	ball, idx := g.Induced(g.BallOfSet(cut, r))
	var local []int
	for i, x := range idx {
		if x == u || x == v {
			local = append(local, i)
		}
	}
	del, keep := deleteVertices(ball, local)
	ids := del.ComponentIDs()
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	for i, k := range keep {
		comp[idx[k]] = ids[i]
	}
	return comp, del.NumComponents()
}

// randomPair returns a vertex u and a distinct v within distance r of it,
// or v = -1 when u's ball is {u}.
func randomPair(g *Graph, r int, rng *rand.Rand) (int, int) {
	u := rng.Intn(g.N())
	ball := g.Ball(u, r)
	if len(ball) < 2 {
		return u, -1
	}
	for {
		if v := ball[rng.Intn(len(ball))]; v != u {
			return u, v
		}
	}
}

// checkSeenBy checks ComponentsSeenBy(w) after a labeling against the
// spec's components comp (from pairBallComponents): the components
// holding a neighbor of w, and those holding a vertex not adjacent to w.
func checkSeenBy(t *testing.T, g *Graph, c *CSR, a *Arena, comp []int, w int, ctx string) {
	t.Helper()
	touched, uncovered := map[int]bool{}, map[int]bool{}
	for _, y := range g.Neighbors(w) {
		if comp[y] >= 0 {
			touched[comp[y]] = true
		}
	}
	for y, id := range comp {
		if id >= 0 && !g.HasEdge(w, y) {
			uncovered[id] = true
		}
	}
	if gotT, gotU := c.ComponentsSeenBy(w, a); gotT != len(touched) || gotU != len(uncovered) {
		t.Fatalf("%s: ComponentsSeenBy(%d) = %d, %d; want %d, %d", ctx, w, gotT, gotU, len(touched), len(uncovered))
	}
}

func TestCSRComponentsSeenBy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(16, 0.15, rng)
		c := g.Freeze()
		a := NewArena()
		for _, r := range []int{1, 2, 3} {
			for k := 0; k < g.N(); k++ {
				u, v := randomPair(g, r, rng)
				if k%2 == 0 {
					v = -1
				}
				comp, _ := pairBallComponents(g, u, v, r)
				c.MarkBall(u, v, r, a)
				c.LabelComponents(u, v, a)
				for _, w := range []int{u, v} {
					if w < 0 {
						continue
					}
					checkSeenBy(t, g, c, a, comp, w, fmt.Sprintf("r=%d cut {%d, %d}", r, u, v))
				}
			}
		}
	}
}

func TestCSRLabelComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(18, 0.12, rng)
		c := g.Freeze()
		a := NewArena()
		for _, r := range []int{1, 2, 3} {
			u, v := randomPair(g, r, rng)
			for _, v := range []int{v, -1} {
				comp, want := pairBallComponents(g, u, v, r)
				c.MarkBall(u, v, r, a)
				if got := c.LabelComponents(u, v, a); got != want {
					t.Fatalf("r=%d LabelComponents(%d, %d) = %d, want %d", r, u, v, got, want)
				}
				// The labeling is the spec's partition up to renaming.
				rename := map[int32]int{}
				for x, id := range comp {
					if id < 0 {
						continue
					}
					l := a.labels[x]
					if prev, ok := rename[l]; ok && prev != id {
						t.Fatalf("label %d covers components %d and %d", l, prev, id)
					}
					rename[l] = id
				}
				if len(rename) != want {
					t.Fatalf("%d labels for %d components", len(rename), want)
				}
				for _, x := range []int{u, v} {
					if x >= 0 {
						checkSeenBy(t, g, c, a, comp, x, fmt.Sprintf("r=%d cut {%d, %d}", r, u, v))
					}
				}
			}
		}
	}
}

func TestCSRClosedSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := opsRandomGraph(20, 0.15, rng)
	c := g.Freeze()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			want := IsSubset(g.ClosedNeighborhood(v), g.ClosedNeighborhood(u))
			if got := c.ClosedSubset(v, u); got != want {
				t.Fatalf("ClosedSubset(%d, %d) = %v, want %v", v, u, got, want)
			}
		}
	}
}

func TestCSRInducedIntoMatchesInduced(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(22, 0.12, rng)
		c := g.Freeze()
		a := NewArena()
		var verts []int32
		for v := 0; v < g.N(); v++ {
			if rng.Intn(2) == 0 {
				verts = append(verts, int32(v))
			}
		}
		want, idx := g.Induced(toInts(verts))
		var sub CSR
		c.InducedInto(&sub, verts, a)
		if sub.N() != want.N() {
			t.Fatalf("induced n = %d, want %d", sub.N(), want.N())
		}
		for i := range idx {
			if got := toInts(sub.Row(i)); !EqualSets(got, want.Neighbors(i)) {
				t.Fatalf("induced row %d = %v, want %v", i, got, want.Neighbors(i))
			}
		}
	}
}

func TestCSRSubsetComponentsMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := opsRandomGraph(26, 0.07, rng)
		c := g.Freeze()
		a := NewArena()
		var subset []int
		var subset32 []int32
		for v := 0; v < g.N(); v++ {
			if rng.Intn(3) != 0 {
				subset = append(subset, v)
				subset32 = append(subset32, int32(v))
			}
		}
		want := g.ComponentsOfSubset(subset)
		got := c.SubsetComponents(subset32, a)
		if len(got) != len(want) {
			t.Fatalf("got %d components, want %d", len(got), len(want))
		}
		for i := range got {
			if !EqualSets(toInts(got[i]), want[i]) {
				t.Fatalf("component %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestFromCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := opsRandomGraph(25, 0.12, rng)
	h := FromCSR(g.Freeze())
	if err := h.Validate(); err != nil {
		t.Fatalf("FromCSR result invalid: %v", err)
	}
	if !g.Equal(h) {
		t.Fatal("FromCSR round trip differs from original")
	}
}

func TestVisitEdgesMatchesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := opsRandomGraph(15, 0.2, rng)
	want := g.Edges()
	var visited [][2]int
	g.VisitEdges(func(u, v int) { visited = append(visited, [2]int{u, v}) })
	if len(visited) != len(want) {
		t.Fatalf("VisitEdges saw %d edges, want %d", len(visited), len(want))
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, visited[i], want[i])
		}
	}
}

// Arena reuse across many mixed operations must not corrupt results.
func TestArenaReuseStress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewArena()
	for trial := 0; trial < 10; trial++ {
		g := opsRandomGraph(12+rng.Intn(20), 0.12, rng)
		c := g.Freeze()
		for v := 0; v < g.N(); v++ {
			ball := sortedBall(c, v, 2, a)
			var sub CSR
			c.InducedInto(&sub, ball, a)
			if sub.N() != len(ball) {
				t.Fatalf("induced size %d, want %d", sub.N(), len(ball))
			}
			want, _ := g.Induced(toInts(ball))
			for i := 0; i < sub.N(); i++ {
				if !EqualSets(toInts(sub.Row(i)), want.Neighbors(i)) {
					t.Fatalf("trial %d v %d: induced row %d mismatch", trial, v, i)
				}
			}
		}
	}
}
