// Structure: a guided tour of the analysis machinery on one graph — the
// block-cut tree (Claim 5.3), minimal 2-cuts and interesting vertices
// (§3.2), the SPQR decomposition (Prop. 5.7), the non-crossing interesting
// families (Prop. 5.8), local cuts (Definition 2.1), and an asymptotic
// dimension cover with its empirical control function (§3).
package main

import (
	"fmt"
	"os"

	"localmds/internal/asdim"
	"localmds/internal/cuts"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/spqr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "structure: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A 12-cycle with two chords: 2-connected, with P/S structure.
	g := gen.Cycle(12)
	g.AddEdge(0, 6)
	g.AddEdge(3, 9)
	fmt.Printf("graph: %s\n\n", g)

	// Connectivity structure.
	fmt.Printf("articulation points: %v\n", cuts.ArticulationPoints(g))
	twoCuts := cuts.MinimalTwoCuts(g)
	fmt.Printf("minimal 2-cuts: %d\n", len(twoCuts))
	fmt.Printf("globally interesting vertices: %v\n\n", cuts.GloballyInterestingVertices(g))

	// Local cuts (Definition 2.1): every vertex of a long cycle is a local
	// 1-cut even though none is a global one.
	r := 2
	c, a := g.Freeze(), graph.NewArena()
	x, c2 := cuts.LocalCutsC2Workers(c, r, r, 1, a)
	fmt.Printf("%d-local 1-cuts: %v\n", r, x)
	fmt.Printf("%d-local 2-cut vertices: %v\n\n", r, c2)

	// SPQR decomposition (Proposition 5.7).
	tree, err := spqr.Decompose(g)
	if err != nil {
		return err
	}
	s, p, rr := tree.CountTypes()
	fmt.Printf("SPQR tree: %d nodes (S=%d P=%d R=%d)\n", len(tree.Nodes), s, p, rr)
	for i, node := range tree.Nodes {
		fmt.Printf("  node %d (%s): vertices %v, %d virtual edges\n",
			i, node.Type, node.Vertices(), len(node.VirtualEdges()))
	}
	cand := tree.CandidateTwoCuts()
	fmt.Printf("Prop 5.7 candidate 2-cut positions: %d\n", len(cand))
	fmt.Printf("Graphviz rendering: %d bytes via tree.DOT (pipe to dot -Tpng)\n\n", len(tree.DOT("spqr")))

	// Non-crossing interesting families (Proposition 5.8).
	families := spqr.InterestingFamilies(g)
	fmt.Printf("Prop 5.8 interesting-cut families: %d (paper proves <= 3)\n", len(families))
	for i, fam := range families {
		fmt.Printf("  family %d: %v\n", i+1, fam)
	}
	fmt.Printf("cover all interesting vertices: %v; pairwise non-crossing: %v\n\n",
		spqr.FamiliesCoverInteresting(g, families), spqr.FamiliesNonCrossing(g, families))

	// Asymptotic dimension cover (§3).
	cover, err := asdim.BFSAnnulusCover(g, 3, 2)
	if err != nil {
		return err
	}
	fmt.Printf("BFS annulus cover (width 3, 2 classes): sizes %d and %d, valid = %v\n",
		len(cover.Classes[0]), len(cover.Classes[1]), cover.Verify(g) == nil)
	points, err := asdim.EstimateControlFunction(g, []int{1, 2, 3}, 2)
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Printf("  empirical control f(%d) = %d\n", pt.R, pt.Estimate)
	}
	return nil
}
