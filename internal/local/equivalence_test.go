package local

import (
	"math/rand"
	"reflect"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// The parallel engine must be observationally identical to the
// sequential reference engine: same per-vertex outputs, same Stats, on any
// topology and identifier assignment. These property tests are the
// load-bearing correctness check for the engine (run them under -race).

// viewsEqual compares two gather views field by field.
func viewsEqual(a, b *View) bool {
	if a.CenterID != b.CenterID || len(a.Adj) != len(b.Adj) {
		return false
	}
	for id, nbrs := range a.Adj {
		other, ok := b.Adj[id]
		if !ok || !graph.EqualSets(nbrs, other) {
			return false
		}
	}
	return true
}

// randomIDs returns a shuffled, gappy identifier assignment.
func randomIDs(n int, rng *rand.Rand) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 3*i + 7
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// checkEnginesAgree runs the gather, leader-election, and BFS-tree
// protocols on g with both engines and fails on any divergence.
func checkEnginesAgree(t *testing.T, g *graph.Graph, ids []int, rounds int) {
	t.Helper()
	nw, err := NewNetwork(g.Freeze(), ids)
	if err != nil {
		t.Fatal(err)
	}
	seqViews, seqStats, err := GatherViews(nw, rounds, Sequential)
	if err != nil {
		t.Fatalf("sequential gather: %v", err)
	}
	parViews, parStats, err := GatherViews(nw, rounds, Parallel)
	if err != nil {
		t.Fatalf("parallel gather: %v", err)
	}
	if seqStats != parStats {
		t.Errorf("gather stats differ: %+v vs %+v", seqStats, parStats)
	}
	for v := range seqViews {
		if !viewsEqual(seqViews[v], parViews[v]) {
			t.Errorf("vertex %d: gather views differ", v)
		}
	}

	horizon := g.Diameter() + 2
	seqLead, seqStats2, err := ElectLeader(nw, horizon, Sequential)
	if err != nil {
		t.Fatalf("sequential leader: %v", err)
	}
	parLead, parStats2, err := ElectLeader(nw, horizon, Parallel)
	if err != nil {
		t.Fatalf("parallel leader: %v", err)
	}
	if seqStats2 != parStats2 {
		t.Errorf("leader stats differ: %+v vs %+v", seqStats2, parStats2)
	}
	if !reflect.DeepEqual(seqLead, parLead) {
		t.Errorf("leader outputs differ: %v vs %v", seqLead, parLead)
	}

	root := nw.ids[0]
	seqTree, seqStats3, err := BuildBFSTree(nw, root, horizon, Sequential)
	if err != nil {
		t.Fatalf("sequential bfs tree: %v", err)
	}
	parTree, parStats3, err := BuildBFSTree(nw, root, horizon, Parallel)
	if err != nil {
		t.Fatalf("parallel bfs tree: %v", err)
	}
	if seqStats3 != parStats3 {
		t.Errorf("bfs tree stats differ: %+v vs %+v", seqStats3, parStats3)
	}
	if !reflect.DeepEqual(seqTree, parTree) {
		t.Errorf("bfs tree outputs differ: %v vs %v", seqTree, parTree)
	}
}

func TestEngineEquivalenceRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		p := 0.05 + 0.3*rng.Float64()
		g := gen.GNP(n, p, rng)
		rounds := 2 + rng.Intn(5)
		checkEnginesAgree(t, g, randomIDs(n, rng), rounds)
	}
}

func TestEngineEquivalenceStructured(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*graph.Graph{
		gen.Path(1),
		gen.Path(17),
		gen.Cycle(24),
		gen.Star(30),
		gen.Grid(6, 9),
		gen.RandomTree(40, rng),
		gen.Complete(12),
	}
	for i, g := range graphs {
		checkEnginesAgree(t, g, nil, 5)
		checkEnginesAgree(t, g, randomIDs(g.N(), rng), 4)
		_ = i
	}
}

// TestEngineEquivalenceIsolatedVertices covers zero-port processes, which
// the active-list engine must still run and halt.
func TestEngineEquivalenceIsolatedVertices(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2) // vertices 3..5 isolated
	checkEnginesAgree(t, g, nil, 4)
}

// FuzzEngineEquivalence drives the same property from the fuzzer: any
// (seed, size, density, rounds) tuple must produce engine-identical runs.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(30), uint8(4))
	f.Add(int64(99), uint8(1), uint8(0), uint8(2))
	f.Add(int64(5), uint8(40), uint8(10), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, density, rounds uint8) {
		nv := 1 + int(n)%48
		r := 2 + int(rounds)%5
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNP(nv, float64(density%100)/100, rng)
		checkEnginesAgree(t, g, randomIDs(nv, rng), r)
	})
}
