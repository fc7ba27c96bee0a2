package cuts

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// biconnectedComponents returns the maximal 2-connected components
// ("blocks") of g as sorted vertex sets. Every edge belongs to exactly one
// block; a bridge forms a 2-vertex block. Isolated vertices form
// single-vertex blocks.
func biconnectedComponents(g *graph.Graph) [][]int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	var stack [][2]int
	var blocks [][]int
	emit := func(until [2]int) {
		seen := map[int]bool{}
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			seen[e[0]] = true
			seen[e[1]] = true
			if e == until {
				break
			}
		}
		verts := make([]int, 0, len(seen))
		for v := range seen {
			verts = append(verts, v)
		}
		sort.Ints(verts)
		blocks = append(blocks, verts)
	}
	var dfs func(v, parent int)
	dfs = func(v, parent int) {
		disc[v] = timer
		low[v] = timer
		timer++
		for _, u := range g.Neighbors(v) {
			if u == parent {
				continue
			}
			if disc[u] >= 0 {
				if disc[u] < disc[v] {
					stack = append(stack, [2]int{v, u})
					if disc[u] < low[v] {
						low[v] = disc[u]
					}
				}
				continue
			}
			e := [2]int{v, u}
			stack = append(stack, e)
			dfs(u, v)
			if low[u] < low[v] {
				low[v] = low[u]
			}
			if low[u] >= disc[v] {
				emit(e)
			}
		}
	}
	for v := 0; v < n; v++ {
		if disc[v] < 0 {
			dfs(v, -1)
			if g.Degree(v) == 0 {
				blocks = append(blocks, []int{v})
			}
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i][0] < blocks[j][0] })
	return blocks
}

// without returns g - s, relabelled as graph.Induced relabels.
func without(g *graph.Graph, s ...int) *graph.Graph {
	var keep []int
	for v := range g.N() {
		if !slices.Contains(s, v) {
			keep = append(keep, v)
		}
	}
	h, _ := g.Induced(keep)
	return h
}

// incidences counts the block-cut incidences: the cut vertices in each
// block, summed over the blocks.
func incidences(blocks [][]int, cutVerts []int) int {
	n := 0
	for _, b := range blocks {
		for _, v := range b {
			if graph.SortedContains(cutVerts, v) {
				n++
			}
		}
	}
	return n
}

// bruteArticulation returns cut vertices of a connected graph by explicit
// deletion.
func bruteArticulation(g *graph.Graph) []int {
	base := g.NumComponents()
	var out []int
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 0 {
			continue
		}
		if without(g, v).NumComponents() > base {
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
	blocks := biconnectedComponents(g)
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2: %v", len(blocks), blocks)
	}
	if !graph.EqualSets(blocks[0], []int{0, 1, 2}) || !graph.EqualSets(blocks[1], []int{2, 3, 4}) {
		t.Errorf("blocks = %v", blocks)
	}
}

func TestBiconnectedComponentsPath(t *testing.T) {
	blocks := biconnectedComponents(gen.Path(4))
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
	blocks := biconnectedComponents(g)
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
		blocks := biconnectedComponents(g)
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
		return incidences(blocks, cutVerts) == len(blocks)+len(cutVerts)-1
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
