package cuts

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// bruteArticulation returns cut vertices of a connected graph by explicit
// deletion.
func bruteArticulation(g *graph.Graph) []int {
	base := g.NumComponents()
	var out []int
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			continue
		}
		h, _ := g.Delete([]int{v})
		if h.NumComponents() > base {
			out = append(out, v)
		}
	}
	return out
}

func TestArticulationPointsKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want []int
	}{
		{"path5", gen.Path(5), []int{1, 2, 3}},
		{"cycle6", gen.Cycle(6), nil},
		{"star", gen.Star(4), []int{0}},
		{"k4", gen.Complete(4), nil},
		{"two triangles joined", twoTriangles(), []int{2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ArticulationPoints(tt.g)
			if !graph.EqualSets(graph.Dedup(got), graph.Dedup(tt.want)) {
				t.Errorf("ArticulationPoints = %v, want %v", got, tt.want)
			}
		})
	}
}

// twoTriangles returns two triangles sharing vertex 2.
func twoTriangles() *graph.Graph {
	return graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}})
}

func TestArticulationMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(15, 0.12, rng)
		got := graph.Dedup(ArticulationPoints(g))
		want := graph.Dedup(bruteArticulation(g))
		return graph.EqualSets(got, want)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBiconnectedComponents(t *testing.T) {
	g := twoTriangles()
	blocks := BiconnectedComponents(g)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2: %v", len(blocks), blocks)
	}
	if !graph.EqualSets(blocks[0], []int{0, 1, 2}) || !graph.EqualSets(blocks[1], []int{2, 3, 4}) {
		t.Errorf("blocks = %v", blocks)
	}
}

func TestBiconnectedComponentsPath(t *testing.T) {
	blocks := BiconnectedComponents(gen.Path(4))
	if len(blocks) != 3 {
		t.Fatalf("P4 has %d blocks, want 3: %v", len(blocks), blocks)
	}
	for _, b := range blocks {
		if len(b) != 2 {
			t.Errorf("P4 block %v should be a single edge", b)
		}
	}
}

func TestBiconnectedComponentsIsolated(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	blocks := BiconnectedComponents(g)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v, want edge block and isolated block", blocks)
	}
}

// Property: every edge appears in exactly one block, and blocks and cut
// vertices form a tree (the block-cut tree of Claim 5.3).
func TestBlocksPartitionEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(14, 0.15, rng)
		blocks := BiconnectedComponents(g)
		count := make(map[[2]int]int)
		for _, b := range blocks {
			sub, idx := g.Induced(b)
			// Count only edges of g inside the block; for 2-connected
			// blocks every induced edge is in the block. For blocks from
			// the edge stack this is exact because blocks are the vertex
			// sets of edge-disjoint subgraphs.
			_ = sub
			for i := 0; i < len(idx); i++ {
				for j := i + 1; j < len(idx); j++ {
					if g.HasEdge(idx[i], idx[j]) {
						count[[2]int{idx[i], idx[j]}]++
					}
				}
			}
		}
		for _, e := range g.Edges() {
			if count[e] < 1 {
				return false
			}
		}
		// On a connected graph a tree with one node per block and per
		// cut vertex has #blocks + #cuts - 1 block-cut incidences.
		cutVerts := ArticulationPoints(g)
		incidences := 0
		for _, b := range blocks {
			incidences += len(graph.SortedIntersect(b, cutVerts))
		}
		return incidences == len(blocks)+len(cutVerts)-1
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
