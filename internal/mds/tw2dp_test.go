package mds

import (
	"math/rand"
	"slices"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// tw2MDS runs the width-2 DP for B-domination on g; required == nil
// requires every vertex.
func tw2MDS(g *graph.Graph, required []bool) ([]int, error) {
	if required == nil {
		required = make([]bool, g.N())
		for v := range required {
			required[v] = true
		}
	}
	return solveTW2(g.Freeze(), mdsRule{required})
}

// tw2MVC runs the width-2 DP for vertex cover on g.
func tw2MVC(g *graph.Graph) ([]int, error) {
	return solveTW2(g.Freeze(), mvcRule{})
}

// checkTW2AgainstOracle asserts that the CSR DP and the adjacency-list
// oracle accept and reject g alike and, when they accept, return the same
// dominating set for required (nil: every vertex) and the same vertex
// cover, both valid.
func checkTW2AgainstOracle(t testing.TB, name string, g *graph.Graph, required []bool) {
	t.Helper()
	got, err := tw2MDS(g, required)
	want, wantErr := exactTW2BDominating(g, required)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: MDS accept/reject differs: DP %v, oracle %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: MDS DP %v, oracle %v (required %v)", name, got, want, required)
	}
	var target []int
	for v := range g.N() {
		if required == nil || required[v] {
			target = append(target, v)
		}
	}
	if !DominatesSet(g, got, target) {
		t.Fatalf("%s: MDS DP set %v does not dominate %v", name, got, target)
	}
	cover, err := tw2MVC(g)
	wantCover, wantErr := exactMVCTreewidth2(g)
	if err != nil || wantErr != nil {
		t.Fatalf("%s: MVC rejected a width-2 graph: DP %v, oracle %v", name, err, wantErr)
	}
	if !slices.Equal(cover, wantCover) || !IsVertexCover(g.Freeze(), cover) {
		t.Fatalf("%s: MVC DP %v, oracle %v", name, cover, wantCover)
	}
}

// randomSeriesParallel grows a two-terminal series-parallel graph from one
// edge: each new vertex subdivides a random edge or opens a path of length
// two beside it.
func randomSeriesParallel(n int, rng *rand.Rand) *graph.Graph {
	edges := [][2]int{{0, 1}}
	for v := 2; v < n; v++ {
		i := rng.Intn(len(edges))
		e := edges[i]
		if rng.Intn(2) == 0 {
			edges[i] = [2]int{e[0], v}
		} else {
			edges = append(edges, [2]int{e[0], v})
		}
		edges = append(edges, [2]int{v, e[1]})
	}
	g := graph.New(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// TestTW2MatchesOracle checks the CSR elimination DP against the
// adjacency-list DPs it replaced: the same accept/reject on every graph,
// identical dominating sets with every vertex required and under random
// required masks, and identical vertex covers.
func TestTW2MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	regular, err := gen.RegularLike(40, 4)
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		name string
		g    *graph.Graph
	}
	graphs := []named{
		{"empty", graph.New(0)},
		{"single", graph.New(1)},
		{"K5", gen.Complete(5)},
		{"grid3x3", gen.Grid(3, 3)},
		{"grid6x6", gen.Grid(6, 6)},
		{"grid1x30", gen.Grid(1, 30)},
		{"regular40", regular},
		{"cliquependants", gen.CliquePendants(6)},
		{"C9", gen.Cycle(9)},
		{"star", gen.Star(12)},
	}
	for i := range 8 {
		forest := graph.DisjointUnion(gen.RandomTree(1+rng.Intn(20), rng), graph.New(1+rng.Intn(3)))
		graphs = append(graphs,
			named{"tree", gen.RandomTree(10+rng.Intn(60), rng)},
			named{"forest", graph.DisjointUnion(forest, gen.RandomTree(1+rng.Intn(20), rng))},
			named{"cactus", gen.RandomCactus(10+rng.Intn(50), rng)},
			named{"outerplanar", gen.MaximalOuterplanar(5+rng.Intn(50), rng)},
			named{"seriesparallel", randomSeriesParallel(3+rng.Intn(50), rng)},
			named{"ding", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 20 + rng.Intn(60), T: 3 + i%4}, rng)},
		)
	}
	for _, tc := range graphs {
		name, g := tc.name, tc.g
		checkTW2AgainstOracle(t, name, g, nil)
		for range 3 {
			required := make([]bool, g.N())
			for v := range required {
				required[v] = rng.Intn(3) == 0
			}
			checkTW2AgainstOracle(t, name, g, required)
		}
	}
}

// FuzzExactDP decodes bytes into a graph on at most 20 vertices and a
// required mask (byte 0: n; bytes 1-3: mask bits; then one edge per byte
// pair) and checks the DP against the oracle.
func FuzzExactDP(f *testing.F) {
	f.Add([]byte{5, 0xff, 0xff, 0xff, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{9, 0x5a, 0x01, 0x00, 0, 1, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 0, 3, 3, 6, 1, 4})
	f.Add([]byte{20, 0x0f, 0xf0, 0x33, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 2, 3, 3, 4, 10, 11, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]) % 21
		g := graph.New(n)
		required := make([]bool, n)
		for v := range required {
			required[v] = data[1+v/8]>>(v%8)&1 != 0
		}
		for i := 4; i+1 < len(data) && n > 0; i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		checkTW2AgainstOracle(t, "fuzz", g, nil)
		checkTW2AgainstOracle(t, "fuzz", g, required)
	})
}
