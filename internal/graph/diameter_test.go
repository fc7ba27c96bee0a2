package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// allPairsDiameter is the oracle for CSR.Diameter: one BFS per vertex,
// the largest eccentricity over all of them.
func allPairsDiameter(c *graph.CSR) int {
	a := graph.NewArena()
	diam := 0
	for v := 0; v < c.N(); v++ {
		diam = max(diam, c.Eccentricity(v, a))
	}
	return diam
}

// TestCSRDiameterMatchesAllPairs checks the eccentricity-bound diameter
// against one BFS per vertex on random, grid, tree, cycle, path, dense
// and disconnected graphs, through one arena reused across all of them
// and through Graph.Diameter on frozen and unfrozen graphs. Under a work
// cap the bounds must still hold the diameter, and the component count
// must not depend on the cap.
func TestCSRDiameterMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := map[string]*graph.Graph{
		"empty":       graph.New(0),
		"single":      graph.New(1),
		"isolated5":   graph.New(5),
		"edge":        gen.Path(2),
		"path17":      gen.Path(17),
		"star9":       gen.Star(9),
		"complete7":   gen.Complete(7),
		"K3,5":        gen.CompleteBipartite(3, 5),
		"binarytree5": gen.BinaryTree(5),
		"caterpillar": gen.Caterpillar(9, 3),
		"cactus60":    gen.RandomCactus(60, rng),
		"outerplanar": gen.MaximalOuterplanar(40, rng),
		"ding150":     ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 150, T: 5}, rng),
		"grid20x20":   gen.Grid(20, 20),
		"grid1x30":    gen.Grid(1, 30),
		"grid7x23":    gen.Grid(7, 23),
		"theta":       must(gen.Theta([]int{3, 7, 12})),
		"circulant":   must(gen.RegularLike(40, 4)),
		"chords":      gen.TreePlusChords(80, 6, 5, rng),
		"disjoint":    graph.DisjointUnion(graph.DisjointUnion(gen.Cycle(9), gen.Grid(5, 8)), graph.DisjointUnion(gen.Path(3), graph.New(2))),
	}
	for n := 3; n <= 12; n++ {
		cases[fmt.Sprintf("cycle%d", n)] = gen.Cycle(n)
	}
	for n := 4; n <= 9; n++ {
		// A clique missing the edge {1, n-2}: every sweep source can have
		// eccentricity 1, so only iFUB's last level finds the 2.
		nearClique := gen.Complete(n)
		nearClique.RemoveEdge(1, n-2)
		cases[fmt.Sprintf("nearclique%d", n)] = nearClique
	}
	for i := 0; i < 20; i++ {
		cases[fmt.Sprintf("tree%d", i)] = gen.RandomTree(1+rng.Intn(60), rng)
		cases[fmt.Sprintf("gnp%d", i)] = gen.GNP(5+rng.Intn(50), []float64{0.03, 0.06, 0.1, 0.3}[i%4], rng)
	}
	a := graph.NewArena()
	for name, g := range cases {
		want := allPairsDiameter(g.Clone().Freeze())
		g = g.Clone() // unfrozen
		if got := g.Diameter(); got != want {
			t.Errorf("%s: unfrozen Graph.Diameter = %d, want %d", name, got, want)
		}
		if g.CSR() != nil {
			t.Errorf("%s: Graph.Diameter froze the graph", name)
		}
		wantComps := g.NumComponents()
		if lo, hi, comps := g.Freeze().Diameter(a, 0); lo != want || hi != want || comps != wantComps {
			t.Errorf("%s: CSR.Diameter = [%d, %d] over %d components, want %d over %d", name, lo, hi, comps, want, wantComps)
		}
		for _, maxWork := range []int{1, 40, 400} {
			if lo, hi, comps := g.CSR().Diameter(a, maxWork); lo > want || hi < want || comps != wantComps {
				t.Errorf("%s: CSR.Diameter(maxWork %d) = [%d, %d] over %d components, want bounds on %d over %d", name, maxWork, lo, hi, comps, want, wantComps)
			}
		}
		if got := g.Diameter(); got != want {
			t.Errorf("%s: frozen Graph.Diameter = %d, want %d", name, got, want)
		}
	}
}

// TestCSRDiameterWorkCap checks that a work cap stops iFUB where it is
// quadratic: on a cycle it needs a BFS from about half the vertices, and a
// cap of 16 BFS runs must leave bounds around the diameter instead.
func TestCSRDiameterWorkCap(t *testing.T) {
	const n = 20000
	c := gen.Cycle(n).Freeze()
	lo, hi, comps := c.Diameter(graph.NewArena(), 16*(n+len(c.Targets)))
	if lo != n/2 || hi <= lo || hi > n-1 || comps != 1 {
		t.Fatalf("capped Diameter(C_%d) = [%d, %d] over %d components, want [%d, (%d, %d]] over 1", n, lo, hi, comps, n/2, n/2, n-1)
	}
}

// TestCSRDiameterGridBFSRuns pins the BFS count on a 12x12 grid, the
// component of mdsingest's generated inputs. After the sweeps from the
// corner 0 and its opposite corner, every vertex of the anti-diagonal ties
// as the center; the middle one has a lone farthest vertex, whose sweep
// settles the diameter. Each anti-diagonal vertex has an unswept corner at
// its eccentricity, so no choice of that center settles in three.
func TestCSRDiameterGridBFSRuns(t *testing.T) {
	c := gen.Grid(12, 12).Freeze()
	a := graph.NewArena()
	c.Diameter(a, 0) // warm the arena: growing it restarts the stamps
	before := a.Stamps()
	lo, hi, comps := c.Diameter(a, 0)
	if runs := a.Stamps() - before; lo != 22 || hi != 22 || comps != 1 || runs != 4 {
		t.Fatalf("Diameter(12x12 grid) = [%d, %d] over %d components in %d BFS runs, want 22 over 1 in 4", lo, hi, comps, runs)
	}
}

func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}
