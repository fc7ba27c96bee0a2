package spqr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"localmds/internal/cuts"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// reassemble reconstructs the represented simple graph from the real edges
// of all skeletons, on n vertices.
func reassemble(t *Tree, n int) (*graph.Graph, error) {
	g := graph.New(n)
	for _, node := range t.Nodes {
		for _, e := range node.Edges {
			if e.Virtual {
				continue
			}
			if err := g.AddEdgeChecked(e.U, e.V); err != nil {
				return nil, fmt.Errorf("spqr: reassemble: %w", err)
			}
		}
	}
	return g, nil
}

// biconnectedSample returns a random 2-connected graph: a cycle plus random
// chords.
func biconnectedSample(n int, chords int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.Cycle(n)
	for added := 0; added < chords; added++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestDecomposeRejects(t *testing.T) {
	if _, err := Decompose(gen.Path(5)); err == nil {
		t.Error("path accepted (not 2-connected)")
	}
	if _, err := Decompose(gen.Path(2)); err == nil {
		t.Error("edge accepted (too small)")
	}
	disconnected := graph.New(6)
	disconnected.AddEdge(0, 1)
	if _, err := Decompose(disconnected); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestDecomposeCycle(t *testing.T) {
	tree, err := Decompose(gen.Cycle(7))
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(tree.Nodes) != 1 || tree.Nodes[0].Type != SNode {
		t.Errorf("C7 should be a single S-node, got %d nodes", len(tree.Nodes))
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDecomposeComplete(t *testing.T) {
	tree, err := Decompose(gen.Complete(5))
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(tree.Nodes) != 1 || tree.Nodes[0].Type != RNode {
		t.Errorf("K5 should be a single R-node, got %+v", tree.Nodes)
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDecomposeTheta(t *testing.T) {
	// Theta with 3 paths of length 2: one P-node hub with 3 S-node
	// (triangle) children.
	g, err := gen.Theta([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Decompose(g)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s, p, r := tree.CountTypes()
	if s != 3 || p != 1 || r != 0 {
		t.Errorf("theta types: s=%d p=%d r=%d, want 3, 1, 0", s, p, r)
	}
}

func TestDecomposeCycleWithChord(t *testing.T) {
	// C6 plus chord {0,3}: P-node (chord + 2 virtuals) with two S
	// children.
	g := gen.Cycle(6)
	g.AddEdge(0, 3)
	tree, err := Decompose(g)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s, p, r := tree.CountTypes()
	if s != 2 || p != 1 || r != 0 {
		t.Errorf("types: s=%d p=%d r=%d, want 2, 1, 0", s, p, r)
	}
}

func TestDecomposeK4(t *testing.T) {
	tree, err := Decompose(gen.Complete(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tree.Nodes) != 1 || tree.Nodes[0].Type != RNode {
		t.Errorf("K4 should be one R-node")
	}
}

func TestReassembleMatchesOriginal(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Cycle(8),
		gen.Complete(5),
		gen.CompleteBipartite(2, 4),
		biconnectedSample(10, 4, 1),
		biconnectedSample(14, 6, 2),
	}
	for i, g := range graphs {
		tree, err := Decompose(g)
		if err != nil {
			t.Fatalf("graph %d: Decompose: %v", i, err)
		}
		back, err := reassemble(tree, g.N())
		if err != nil {
			t.Fatalf("graph %d: reassemble: %v", i, err)
		}
		if !back.Equal(g) {
			t.Errorf("graph %d: reassembled graph differs", i)
		}
	}
}

func TestValidateAndReassembleProperty(t *testing.T) {
	f := func(seed int64, rawN, rawC uint8) bool {
		n := int(rawN%12) + 4
		c := int(rawC % 8)
		g := biconnectedSample(n, c, seed)
		tree, err := Decompose(g)
		if err != nil {
			return false
		}
		if tree.Validate() != nil {
			return false
		}
		back, err := reassemble(tree, g.N())
		if err != nil {
			return false
		}
		return back.Equal(g)
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property (Proposition 5.7): every minimal 2-cut of the graph appears
// among the tree's candidate positions.
func TestProposition57Property(t *testing.T) {
	f := func(seed int64, rawN, rawC uint8) bool {
		n := int(rawN%10) + 4
		c := int(rawC % 6)
		g := biconnectedSample(n, c, seed)
		tree, err := Decompose(g)
		if err != nil {
			return false
		}
		candSet := make(map[[2]int]bool)
		for _, cp := range tree.CandidateTwoCuts() {
			candSet[[2]int{cp.U, cp.V}] = true
		}
		for _, cut := range cuts.MinimalTwoCuts(g) {
			if !candSet[[2]int{cut.U, cut.V}] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInterestingFamiliesC6(t *testing.T) {
	// The paper's example: C6 needs exactly the 3 opposite cuts, one per
	// family.
	g := gen.Cycle(6)
	families := InterestingFamilies(g)
	if len(families) != 3 {
		t.Fatalf("C6: %d families, want 3: %v", len(families), families)
	}
	if !FamiliesCoverInteresting(g, families) {
		t.Error("families do not cover all interesting vertices")
	}
	if !FamiliesNonCrossing(g, families) {
		t.Error("families contain crossing cuts")
	}
}

func TestInterestingFamiliesLongCycle(t *testing.T) {
	g := gen.Cycle(12)
	families := InterestingFamilies(g)
	if len(families) > 3 {
		t.Errorf("C12: %d families, want <= 3", len(families))
	}
	if !FamiliesCoverInteresting(g, families) {
		t.Error("families do not cover all interesting vertices")
	}
	if !FamiliesNonCrossing(g, families) {
		t.Error("families contain crossing cuts")
	}
}

// Property: the greedy families always cover and never cross (the <= 3
// bound is checked on structured instances above; greedy may exceed it on
// adversarial inputs, which the paper's constructive proof avoids).
func TestInterestingFamiliesSoundProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%8) + 4
		g := biconnectedSample(n, 2, seed)
		families := InterestingFamilies(g)
		return FamiliesCoverInteresting(g, families) && FamiliesNonCrossing(g, families)
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTreeDOT(t *testing.T) {
	g := gen.Cycle(6)
	g.AddEdge(0, 3)
	tree, err := Decompose(g)
	if err != nil {
		t.Fatal(err)
	}
	dot := tree.DOT("demo graph")
	for _, want := range []string{"graph demo_graph {", "S", "P", "--"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if !strings.Contains(tree.DOT(""), "graph SPQR {") {
		t.Error("empty name should default to SPQR")
	}
}

func TestValidateRejectsCorruptTrees(t *testing.T) {
	g := gen.Cycle(6)
	g.AddEdge(0, 3)
	fresh := func() *Tree {
		tree, err := Decompose(g)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	// Mis-typed nodes: make every node an R node; the P-node (2 vertices)
	// must then fail validation.
	tree := fresh()
	for _, n := range tree.Nodes {
		n.Type = RNode
	}
	if err := tree.Validate(); err == nil {
		t.Error("all-R tree accepted")
	}
	// Break a twin pointer.
	tree = fresh()
outer:
	for _, n := range tree.Nodes {
		for i := range n.Edges {
			if n.Edges[i].Virtual {
				n.Edges[i].Twin = 99999
				break outer
			}
		}
	}
	if err := tree.Validate(); err == nil {
		t.Error("broken twin accepted")
	}
	// Duplicate edge identifier.
	tree = fresh()
	if len(tree.Nodes[0].Edges) >= 2 {
		tree.Nodes[0].Edges[1].ID = tree.Nodes[0].Edges[0].ID
		if err := tree.Validate(); err == nil {
			t.Error("duplicate edge id accepted")
		}
	}
}
