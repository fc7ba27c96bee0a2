package local

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// A run must be observationally identical at 1 worker and at 4: same
// per-vertex outputs, same Stats, on any topology and identifier
// assignment. These property tests are the load-bearing correctness check
// for Run's fan-out (run them under -race).

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

// protocolRuns holds the gather, leader-election and BFS-tree runs of one
// network at one GOMAXPROCS setting.
type protocolRuns struct {
	views                           []*View
	lead                            []LeaderResult
	tree                            []BFSTreeResult
	viewStats, leadStats, treeStats Stats
}

// runProtocols runs the three protocols on nw at procs workers.
func runProtocols(t *testing.T, nw *Network, rounds, horizon, root, procs int) protocolRuns {
	t.Helper()
	var r protocolRuns
	var err error
	atProcs(procs, func() {
		if r.views, r.viewStats, err = GatherViews(nw, rounds); err != nil {
			err = fmt.Errorf("gather: %w", err)
			return
		}
		if r.lead, r.leadStats, err = ElectLeader(nw, horizon); err != nil {
			err = fmt.Errorf("leader: %w", err)
			return
		}
		if r.tree, r.treeStats, err = BuildBFSTree(nw, root, horizon); err != nil {
			err = fmt.Errorf("bfs tree: %w", err)
		}
	})
	if err != nil {
		t.Fatalf("GOMAXPROCS %d: %v", procs, err)
	}
	return r
}

// checkEnginesAgree runs the gather, leader-election, and BFS-tree
// protocols on g at GOMAXPROCS 1 and 4 and fails on any divergence.
func checkEnginesAgree(t *testing.T, g *graph.Graph, ids []int, rounds int) {
	t.Helper()
	nw, err := NewNetwork(g.Freeze(), ids)
	if err != nil {
		t.Fatal(err)
	}
	horizon, root := g.Diameter()+2, nw.ids[0]
	seq := runProtocols(t, nw, rounds, horizon, root, 1)
	par := runProtocols(t, nw, rounds, horizon, root, 4)
	if seq.viewStats != par.viewStats {
		t.Errorf("gather stats differ: %+v vs %+v", seq.viewStats, par.viewStats)
	}
	for v := range seq.views {
		if !viewsEqual(seq.views[v], par.views[v]) {
			t.Errorf("vertex %d: gather views differ", v)
		}
	}
	if seq.leadStats != par.leadStats {
		t.Errorf("leader stats differ: %+v vs %+v", seq.leadStats, par.leadStats)
	}
	if !reflect.DeepEqual(seq.lead, par.lead) {
		t.Errorf("leader outputs differ: %v vs %v", seq.lead, par.lead)
	}
	if seq.treeStats != par.treeStats {
		t.Errorf("bfs tree stats differ: %+v vs %+v", seq.treeStats, par.treeStats)
	}
	if !reflect.DeepEqual(seq.tree, par.tree) {
		t.Errorf("bfs tree outputs differ: %v vs %v", seq.tree, par.tree)
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
// the active-list simulator must still run and halt.
func TestEngineEquivalenceIsolatedVertices(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2) // vertices 3..5 isolated
	checkEnginesAgree(t, g, nil, 4)
}

// FuzzEngineEquivalence drives the same property from the fuzzer: any
// (seed, size, density, rounds) tuple must produce identical runs at
// GOMAXPROCS 1 and 4.
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
