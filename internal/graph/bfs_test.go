package graph

import (
	"testing"
	"testing/quick"
)

func TestBFSFromPath(t *testing.T) {
	g := path(5)
	dist := g.BFSFrom(0)
	for v, want := range []int{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFSFrom(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Errorf("unreachable distances = %d, %d, want -1, -1", dist[2], dist[3])
	}
}

func TestBFSFromSet(t *testing.T) {
	g := path(7)
	dist := g.BFSFromSet([]int{0, 6})
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for v := range want {
		if dist[v] != want[v] {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestDist(t *testing.T) {
	g := cycle(6)
	tests := []struct{ u, v, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 5, 1}, {1, 4, 3},
	}
	for _, tt := range tests {
		if got := g.Dist(tt.u, tt.v); got != tt.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestBall(t *testing.T) {
	g := path(7)
	tests := []struct {
		v, r int
		want []int
	}{
		{3, 0, []int{3}},
		{3, 1, []int{2, 3, 4}},
		{3, 2, []int{1, 2, 3, 4, 5}},
		{0, 3, []int{0, 1, 2, 3}},
		{3, 100, []int{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, tt := range tests {
		got := g.Ball(tt.v, tt.r)
		if !EqualSets(got, tt.want) {
			t.Errorf("Ball(%d,%d) = %v, want %v", tt.v, tt.r, got, tt.want)
		}
	}
}

func TestBallOfSet(t *testing.T) {
	g := path(9)
	got := g.BallOfSet([]int{0, 8}, 1)
	want := []int{0, 1, 7, 8}
	if !EqualSets(got, want) {
		t.Errorf("BallOfSet = %v, want %v", got, want)
	}
}

func TestClosedNeighborhood(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}})
	got := g.ClosedNeighborhood(0)
	if !EqualSets(got, []int{0, 1, 2}) {
		t.Errorf("ClosedNeighborhood(0) = %v", got)
	}
	if !EqualSets(g.ClosedNeighborhood(3), []int{3}) {
		t.Errorf("ClosedNeighborhood(3) = %v", g.ClosedNeighborhood(3))
	}
}

func TestEccentricityDiameterRadius(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		diam int
	}{
		{"path5", path(5), 4},
		{"cycle6", cycle(6), 3},
		{"k4", complete(4), 1},
		{"single", New(1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.diam {
				t.Errorf("Diameter() = %d, want %d", got, tt.diam)
			}
		})
	}
}

func TestWeakDiameter(t *testing.T) {
	// Cycle of 8: the set {0, 4} has weak diameter 4 even though the
	// induced subgraph on {0,4} is disconnected.
	g := cycle(8)
	if got := g.WeakDiameter([]int{0, 4}); got != 4 {
		t.Errorf("WeakDiameter({0,4}) = %d, want 4", got)
	}
	if got := g.WeakDiameter([]int{3}); got != 0 {
		t.Errorf("WeakDiameter single = %d, want 0", got)
	}
}

// Property: |Ball(v, r)| is non-decreasing in r, and Ball(v, diam) reaches
// the whole component.
func TestBallMonotoneProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%30) + 2
		g := randomGraph(n, 0.15, seed)
		v := int(uint(seed) % uint(n))
		prev := 0
		for r := 0; r <= n; r++ {
			size := len(g.Ball(v, r))
			if size < prev {
				return false
			}
			prev = size
		}
		comp := g.Components()
		for _, c := range comp {
			if SortedContains(c, v) {
				return EqualSets(g.Ball(v, n), c)
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BFS distances satisfy the triangle inequality along edges:
// |dist[u] - dist[v]| <= 1 for every edge {u,v} in the same component.
func TestBFSLipschitzProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%30) + 2
		g := randomGraph(n, 0.2, seed)
		dist := g.BFSFrom(0)
		for _, e := range g.Edges() {
			du, dv := dist[e[0]], dist[e[1]]
			if du >= 0 && dv >= 0 {
				diff := du - dv
				if diff < -1 || diff > 1 {
					return false
				}
			}
			if (du < 0) != (dv < 0) {
				return false // edge between reached and unreached
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
