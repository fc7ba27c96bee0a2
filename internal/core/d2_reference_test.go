package core

import (
	"math/rand"
	"reflect"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// d2Sequential is D2 as it ran on adjacency lists before it moved to the
// CSR: Graph.TwinReduction and closed-neighbourhood slices. It is the
// oracle for TestD2MatchesSequential.
func d2Sequential(g *graph.Graph) *D2Result {
	reduced, active := g.TwinReduction()
	var sLocal []int
	for v := 0; v < reduced.N(); v++ {
		if gammaAtLeastTwoSequential(reduced, v) {
			sLocal = append(sLocal, v)
		}
	}
	return &D2Result{S: mapBack(sLocal, active), Active: append([]int(nil), active...)}
}

func gammaAtLeastTwoSequential(g *graph.Graph, v int) bool {
	nv := g.ClosedNeighborhood(v)
	for _, u := range g.Neighbors(v) {
		if graph.IsSubset(nv, g.ClosedNeighborhood(u)) {
			return false
		}
	}
	return true
}

// mvcD2Sequential is MVCD2's adjacency-list original.
func mvcD2Sequential(g *graph.Graph) *MVCResult {
	reduced, active := g.TwinReduction()
	take := make([]bool, reduced.N())
	for v := 0; v < reduced.N(); v++ {
		if reduced.Degree(v) > 0 && gammaAtLeastTwoSequential(reduced, v) {
			take[v] = true
		}
	}
	repaired := repairUncoveredEdgesSequential(reduced, take)
	var sLocal []int
	for v, ok := range repaired {
		if ok {
			sLocal = append(sLocal, v)
		}
	}
	cover := mapBack(sLocal, active)
	inCover := make([]bool, g.N())
	for _, v := range cover {
		inCover[v] = true
	}
	inCover = repairUncoveredEdgesSequential(g, inCover)
	var s []int
	for v, ok := range inCover {
		if ok {
			s = append(s, v)
		}
	}
	return &MVCResult{S: s}
}

func repairUncoveredEdgesSequential(g *graph.Graph, take []bool) []bool {
	out := append([]bool(nil), take...)
	for v := 0; v < g.N(); v++ {
		if take[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if !take[u] && v < u {
				out[v] = true
				break
			}
		}
	}
	return out
}

// TestD2MatchesSequential checks that D2 and MVCD2 on the CSR return
// results field-identical to their adjacency-list originals on the Table 1
// families, clique-pendant graphs (twin-heavy) and disconnected unions.
func TestD2MatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	regular, err := gen.RegularLike(60, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.New(0)},
		{"isolated", graph.New(4)},
		{"tree", gen.RandomTree(120, rng)},
		{"outerplanar", gen.MaximalOuterplanar(120, rng)},
		{"grid", gen.Grid(9, 9)},
		{"regular", regular},
		{"cactus", gen.RandomCactus(120, rng)},
		{"ding-t3", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 150, T: 3}, rng)},
		{"ding-t5", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 150, T: 5}, rng)},
		{"cliquependants", gen.CliquePendants(7)},
		{"complete", gen.Complete(6)},
		{"union", graph.DisjointUnion(graph.DisjointUnion(gen.CliquePendants(5), graph.New(2)), gen.RandomCactus(40, rng))},
	}
	for _, tc := range graphs {
		if got, want := D2(tc.g.Freeze()), d2Sequential(tc.g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: D2 %+v, sequential %+v", tc.name, got, want)
		}
		if got, want := MVCD2(tc.g.Freeze()), mvcD2Sequential(tc.g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: MVCD2 %+v, sequential %+v", tc.name, got, want)
		}
	}
}
