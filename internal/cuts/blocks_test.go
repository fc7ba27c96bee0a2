package cuts

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// glue returns g with a copy of h attached: h's vertex 0 is identified
// with g's vertex at, and h's other vertices follow g's.
func glue(g, h *graph.Graph, at int) *graph.Graph {
	n := g.N()
	out := graph.New(n + h.N() - 1)
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	id := func(v int) int {
		if v == 0 {
			return at
		}
		return n + v - 1
	}
	for _, e := range h.Edges() {
		out.AddEdge(id(e[0]), id(e[1]))
	}
	return out
}

// ladder returns the strip with k rungs {2i, 2i+1} and rails
// 2i–2i+2, 2i+1–2i+3.
func ladder(k int) *graph.Graph {
	g := graph.New(2 * k)
	for i := 0; i < k; i++ {
		g.AddEdge(2*i, 2*i+1)
		if i+1 < k {
			g.AddEdge(2*i, 2*i+2)
			g.AddEdge(2*i+1, 2*i+3)
		}
	}
	return g
}

// blockRichFamilies returns inputs whose block trees have many blocks:
// triangles, cycles and ladders glued at articulation points with pendant
// paths, and disjoint unions of those with ding graphs, cacti and
// isolated vertices.
func blockRichFamilies() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(41))
	star := gen.Cycle(3)
	for i := 0; i < 4; i++ {
		star = glue(star, gen.Cycle(3), 0)
	}
	chain := ladder(6)
	chain = glue(chain, gen.Cycle(3), 0)
	chain = glue(chain, gen.Cycle(7), 11)
	chain = glue(chain, gen.Path(4), 5)
	chain = glue(chain, gen.Cycle(5), chain.N()-1)
	return map[string]*graph.Graph{
		"starOfTriangles": star,
		"ladderChain":     chain,
		"unionCacti": graph.DisjointUnion(graph.DisjointUnion(gen.RandomCactus(30, rng), graph.New(2)),
			graph.DisjointUnion(gen.RandomCactus(25, rng), gen.Path(6))),
		"unionDing": graph.DisjointUnion(ding.MustGenerate(ding.Config{Kind: ding.BlockForest, N: 60, T: 5}, rng),
			graph.DisjointUnion(chain, gen.RandomTree(12, rng))),
	}
}

// radiusPairs are the (r1, r2) the kernel is checked at: every pair with
// r1 ∈ 1..6 and r2 ∈ 2..6, and the paper's radii for t = 5, where every
// ball covers its component.
func radiusPairs() [][2]int {
	var out [][2]int
	for r1 := 1; r1 <= 6; r1++ {
		for r2 := 2; r2 <= 6; r2++ {
			out = append(out, [2]int{r1, r2})
		}
	}
	return append(out, [2]int{217, 369})
}

// checkAgainstOracle runs both entry points at the given worker counts and
// compares their sets with wholeGraphCuts' at one worker.
func checkAgainstOracle(t *testing.T, name string, c *graph.CSR, r1, r2 int, workers ...int) {
	t.Helper()
	for _, rule := range []pairRule{interestingRule{}, twoCutRule{}} {
		wantX, wantF := wholeGraphCuts(c, r1, r2, 1, graph.NewArena(), rule)
		for _, w := range workers {
			x, f := localCuts(c, r1, r2, w, graph.NewArena(), rule)
			if !graph.EqualSets(x, wantX) || !graph.EqualSets(f, wantF) {
				t.Fatalf("%s r1=%d r2=%d workers=%d %T: X, flagged = %v, %v; oracle %v, %v", name, r1, r2, w, rule, x, f, wantX, wantF)
			}
		}
	}
}

// TestLocalCutsMatchWholeGraphOracle compares the block-restricted kernel
// with the whole-graph one on the differential families, raw and
// twin-reduced, and on the block-rich ones, at every radius pair and at
// 1, 2, 3 and 8 workers.
func TestLocalCutsMatchWholeGraphOracle(t *testing.T) {
	inputs := map[string]*graph.CSR{}
	for name, g := range rawCutFamilies() {
		inputs[name] = g.Freeze()
	}
	for name, c := range cutFamilies() {
		inputs[name+"/reduced"] = c
	}
	for name, g := range blockRichFamilies() {
		inputs[name] = g.Freeze()
	}
	for _, name := range slices.Sorted(maps.Keys(inputs)) {
		for _, rr := range radiusPairs() {
			checkAgainstOracle(t, name, inputs[name], rr[0], rr[1], 1, 2, 3, 8)
		}
	}
}

// TestBlocksMatchBiconnectedComponents checks graph.CSR.Blocks against
// the recursive edge-stack enumeration and the brute-force articulation
// points: every block's members, read through BlockTree.In, are one
// biconnected component, and Shared finds the block of every edge.
func TestBlocksMatchBiconnectedComponents(t *testing.T) {
	graphs := blockRichFamilies()
	for name, g := range rawCutFamilies() {
		graphs[name] = g
	}
	for name, g := range graphs {
		c := g.Freeze()
		bt := c.Blocks(graph.NewArena())
		var got [][]int
		for b := range bt.Parent {
			var members []int
			for v := range g.N() {
				if bt.In(int32(v), int32(b)) {
					members = append(members, v)
				}
			}
			got = append(got, members)
		}
		var want [][]int
		for _, b := range biconnectedComponents(g) {
			if len(b) > 1 {
				want = append(want, b)
			}
		}
		slices.SortFunc(got, slices.Compare)
		slices.SortFunc(want, slices.Compare)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: blocks %v, want %v", name, got, want)
		}
		var arts []int
		for v, ok := range bt.Art {
			if ok {
				arts = append(arts, v)
			}
		}
		if !graph.EqualSets(arts, ArticulationPoints(g)) {
			t.Errorf("%s: articulation points %v, want %v", name, arts, ArticulationPoints(g))
		}
		for _, e := range g.Edges() {
			b := bt.Shared(e[0], e[1])
			if b < 0 || b != bt.Shared(e[1], e[0]) || !bt.In(int32(e[0]), int32(b)) || !bt.In(int32(e[1]), int32(b)) {
				t.Errorf("%s: edge %v in block %d", name, e, b)
			}
		}
		for v := range g.N() {
			if (bt.Label[v] < 0) != (g.Degree(v) == 0) {
				t.Errorf("%s: vertex %v of degree %d has label %d", name, v, g.Degree(v), bt.Label[v])
			}
		}
	}
}
