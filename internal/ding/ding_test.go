package ding

import (
	"fmt"
	"math/rand"
	"testing"

	"localmds/internal/graph"
	"localmds/internal/minor"
)

func TestNewFan(t *testing.T) {
	f, err := NewFan(5)
	if err != nil {
		t.Fatalf("NewFan: %v", err)
	}
	if f.G.N() != 6 {
		t.Errorf("fan N = %d, want 6", f.G.N())
	}
	// Center adjacent to every path vertex.
	if f.G.Degree(f.Center) != 5 {
		t.Errorf("center degree = %d, want 5", f.G.Degree(f.Center))
	}
	if _, err := NewFan(1); err == nil {
		t.Error("NewFan(1) accepted")
	}
}

func TestFanIsK23Free(t *testing.T) {
	for length := 2; length <= 9; length++ {
		f, err := NewFan(length)
		if err != nil {
			t.Fatalf("NewFan(%d): %v", length, err)
		}
		_, ok, err := minor.HasK2tMinor(f.G, 3)
		if err != nil {
			t.Fatalf("minor test: %v", err)
		}
		if ok {
			t.Errorf("fan of length %d has a K_{2,3} minor", length)
		}
	}
}

func TestNewStrip(t *testing.T) {
	s, err := NewStrip(4)
	if err != nil {
		t.Fatalf("NewStrip: %v", err)
	}
	if s.G.N() != 8 {
		t.Errorf("strip N = %d, want 8", s.G.N())
	}
	// 4 rungs + 2*3 path edges = 10 edges.
	if s.G.M() != 10 {
		t.Errorf("strip M = %d, want 10", s.G.M())
	}
	if _, err := NewStrip(1); err == nil {
		t.Error("NewStrip(1) accepted")
	}
}

func TestStripIsK25Free(t *testing.T) {
	// Ding proves strips exclude K_{2,5}; verify exactly for small strips.
	for rungs := 2; rungs <= 6; rungs++ {
		s, err := NewStrip(rungs)
		if err != nil {
			t.Fatalf("NewStrip(%d): %v", rungs, err)
		}
		_, ok, err := minor.HasK2tMinor(s.G, 5)
		if err != nil {
			t.Fatalf("minor test: %v", err)
		}
		if ok {
			t.Errorf("strip with %d rungs has a K_{2,5} minor", rungs)
		}
	}
}

// verifyTypeI checks the type-I conditions from §5.4 against a graph g whose
// reference Hamiltonian cycle visits cycleOrder[0], cycleOrder[1], ... in
// order. It verifies that (1) cycleOrder is a Hamiltonian cycle of g,
// (2) every chord crosses at most one other chord, and (3) crossing chords
// ab, cd have both ac, bd or both ad, bc as cycle edges.
func verifyTypeI(g *graph.Graph, cycleOrder []int) error {
	n := g.N()
	if len(cycleOrder) != n {
		return fmt.Errorf("ding: cycle order has %d vertices, graph has %d", len(cycleOrder), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range cycleOrder {
		if v < 0 || v >= n || pos[v] >= 0 {
			return fmt.Errorf("ding: cycle order is not a permutation at index %d", i)
		}
		pos[v] = i
	}
	for i := 0; i < n; i++ {
		u, v := cycleOrder[i], cycleOrder[(i+1)%n]
		if !g.HasEdge(u, v) {
			return fmt.Errorf("ding: missing cycle edge {%d,%d}", u, v)
		}
	}
	isCycleEdge := func(u, v int) bool {
		d := pos[u] - pos[v]
		if d < 0 {
			d = -d
		}
		return d == 1 || d == n-1
	}
	var chords [][2]int
	g.VisitEdges(func(u, v int) {
		if !isCycleEdge(u, v) {
			chords = append(chords, [2]int{u, v})
		}
	})
	crossCount := make([]int, len(chords))
	for i := 0; i < len(chords); i++ {
		for j := i + 1; j < len(chords); j++ {
			if !chordsCross(pos, n, chords[i], chords[j]) {
				continue
			}
			crossCount[i]++
			crossCount[j]++
			a, b := chords[i][0], chords[i][1]
			c, d := chords[j][0], chords[j][1]
			ok := (isCycleEdge(a, c) && isCycleEdge(b, d)) ||
				(isCycleEdge(a, d) && isCycleEdge(b, c))
			if !ok {
				return fmt.Errorf("ding: crossing chords {%d,%d} x {%d,%d} violate the adjacency condition", a, b, c, d)
			}
		}
	}
	for i, c := range crossCount {
		if c > 1 {
			return fmt.Errorf("ding: chord {%d,%d} crosses %d chords (> 1)", chords[i][0], chords[i][1], c)
		}
	}
	return nil
}

// chordsCross reports whether two chords interleave around the reference
// cycle, i.e. exactly one endpoint of the second lies strictly inside the
// arc spanned by the first. Chords sharing an endpoint do not cross.
func chordsCross(pos []int, n int, e1, e2 [2]int) bool {
	a, b := pos[e1[0]], pos[e1[1]]
	c, d := pos[e2[0]], pos[e2[1]]
	if a == c || a == d || b == c || b == d {
		return false
	}
	inside := func(x, lo, hi int) bool {
		// Is position x strictly inside the arc lo -> hi (clockwise)?
		if lo < hi {
			return x > lo && x < hi
		}
		return x > lo || x < hi
	}
	return inside(c, a, b) != inside(d, a, b)
}

func TestVerifyTypeIAcceptsFanAndStrip(t *testing.T) {
	// A fan's reference cycle: center, then the path.
	f, err := NewFan(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyTypeI(f.G, []int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Errorf("fan rejected as type-I: %v", err)
	}
	// A strip's reference cycle: top path forward, bottom path backward.
	s, err := NewStrip(4)
	if err != nil {
		t.Fatal(err)
	}
	order := []int{0, 2, 4, 6, 7, 5, 3, 1}
	if err := verifyTypeI(s.G, order); err != nil {
		t.Errorf("strip rejected as type-I: %v", err)
	}
}

func TestVerifyTypeIRejects(t *testing.T) {
	// C8 with chords {0,4} and {2,6}: the chords cross but none of the
	// endpoint pairs (0,2), (4,6), (0,6), (4,2) is... (0,6)? 0 and 6 are
	// not cycle-adjacent in C8 (distance 2), so the crossing condition
	// fails.
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddEdge(i, (i+1)%8)
	}
	g.AddEdge(0, 4)
	g.AddEdge(2, 6)
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if err := verifyTypeI(g, order); err == nil {
		t.Error("crossing long chords accepted as type-I")
	}
	// Wrong cycle order (not Hamiltonian in g).
	if err := verifyTypeI(g, []int{0, 2, 4, 1, 3, 5}); err == nil {
		t.Error("non-Hamiltonian order accepted")
	}
	// Not a permutation.
	if err := verifyTypeI(g, []int{0, 0, 2, 3, 4, 5}); err == nil {
		t.Error("non-permutation accepted")
	}
	// Wrong length.
	if err := verifyTypeI(g, []int{0, 1, 2}); err == nil {
		t.Error("short order accepted")
	}
}

func TestVerifyTypeIAllowsAdjacentCrossings(t *testing.T) {
	// C5 with chords {0,2} and {1,3}: they cross, and 0-1, 2-3 are cycle
	// edges, satisfying the crossing condition.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)
	}
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	if err := verifyTypeI(g, []int{0, 1, 2, 3, 4}); err != nil {
		t.Errorf("adjacent crossing chords rejected: %v", err)
	}
}

func TestVerifyTypeIRejectsTripleCross(t *testing.T) {
	// C6 with chords 0-2, 1-3, and 1-4: chord 1-3 would cross 0-2 (allowed
	// pairwise) but adding 0-4 crossing 1-3 too means chord 1-3 crosses 2.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
	}
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 4)
	if err := verifyTypeI(g, []int{0, 1, 2, 3, 4, 5}); err == nil {
		t.Error("chord crossing two chords accepted")
	}
}

func TestGenerateKinds(t *testing.T) {
	for _, kind := range []WorkloadKind{BlockForest, StripChain, Mixed} {
		rng := rand.New(rand.NewSource(11))
		g, err := Generate(Config{Kind: kind, N: 120, T: 5}, rng)
		if err != nil {
			t.Fatalf("Generate(kind %d): %v", kind, err)
		}
		if g.N() < 120 {
			t.Errorf("kind %d: N = %d < 120", kind, g.N())
		}
		if !g.Connected() {
			t.Errorf("kind %d: not connected", kind)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("kind %d: Validate: %v", kind, err)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(Config{Kind: BlockForest, N: 10, T: 2}, rng); err == nil {
		t.Error("T = 2 accepted")
	}
	if _, err := Generate(Config{Kind: BlockForest, N: 1, T: 3}, rng); err == nil {
		t.Error("N = 1 accepted")
	}
	if _, err := Generate(Config{Kind: 99, N: 10, T: 3}, rng); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Config{Kind: Mixed, N: 60, T: 5}, rand.New(rand.NewSource(5)))
	b := MustGenerate(Config{Kind: Mixed, N: 60, T: 5}, rand.New(rand.NewSource(5)))
	if !a.Equal(b) {
		t.Error("same seed produced different graphs")
	}
}

// TestGenerateIsK2tFree cross-checks the freeness-by-construction argument
// with the exact minor tester at small sizes.
func TestGenerateIsK2tFree(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, kind := range []WorkloadKind{BlockForest, StripChain, Mixed} {
			rng := rand.New(rand.NewSource(seed))
			g, err := Generate(Config{Kind: kind, N: 10, T: 5}, rng)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if g.N() > 15 {
				continue // gadget overshoot; exact check too slow
			}
			_, ok, err := minor.HasK2tMinor(g, 5)
			if err != nil {
				t.Fatalf("minor test: %v", err)
			}
			if ok {
				t.Errorf("seed %d kind %d: generated graph has K_{2,5} minor", seed, kind)
			}
		}
	}
}

// TestGenerateSmallTIsK23Free checks that with T = 3 the generator avoids
// strips and the result is K_{2,3}-minor-free.
func TestGenerateSmallTIsK23Free(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := Generate(Config{Kind: Mixed, N: 10, T: 3}, rng)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if g.N() > 15 {
			continue
		}
		_, ok, err := minor.HasK2tMinor(g, 3)
		if err != nil {
			t.Fatalf("minor test: %v", err)
		}
		if ok {
			t.Errorf("seed %d: T=3 graph has K_{2,3} minor", seed)
		}
	}
}

func TestStripChainAnchorsAdvance(t *testing.T) {
	// The strip chain must be a chain, not a bouquet: its diameter grows
	// with N.
	g := MustGenerate(Config{Kind: StripChain, N: 80, T: 5}, rand.New(rand.NewSource(3)))
	if d := g.Diameter(); d < 15 {
		t.Errorf("strip chain diameter = %d, want >= 15", d)
	}
}
