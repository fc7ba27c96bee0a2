package cuts

import (
	"fmt"
	"math/rand"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

func randomCutGraph(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	// A sprinkle of pendants and bridges makes cut structure likely.
	for i := 0; i+1 < n; i += 5 {
		if !g.HasEdge(i, i+1) {
			g.AddEdge(i, i+1)
		}
	}
	return g
}

func TestLocalOneCutsCSRMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := graph.NewArena()
	for trial := 0; trial < 20; trial++ {
		g := randomCutGraph(20, 0.08, rng)
		c := g.Freeze()
		for _, r := range []int{1, 2, 3, 4} {
			want := LocalOneCuts(g, r)
			got := LocalOneCutsCSR(c, r, a)
			if !graph.EqualSets(got, want) {
				t.Fatalf("trial %d r=%d: CSR = %v, legacy = %v", trial, r, got, want)
			}
		}
	}
}

func TestLocallyInterestingVerticesCSRMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := graph.NewArena()
	for trial := 0; trial < 12; trial++ {
		g := randomCutGraph(16, 0.1, rng)
		c := g.Freeze()
		for _, r := range []int{2, 3, 4} {
			want := LocallyInterestingVertices(g, r)
			got := LocallyInterestingVerticesCSR(c, r, a)
			if !graph.EqualSets(got, want) {
				t.Fatalf("trial %d r=%d: CSR = %v, legacy = %v", trial, r, got, want)
			}
		}
	}
}

// rawCutFamilies returns the differential inputs: the Table 1 families,
// the random cut graphs, a twin-heavy clique with pendants and a
// disconnected union.
func rawCutFamilies() map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(23))
	raw := map[string]*graph.Graph{
		"grid8x9":       gen.Grid(8, 9),
		"dingMixed120":  ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 120, T: 5}, rng),
		"outerplanar20": gen.MaximalOuterplanar(20, rng),
		"cactus40":      gen.RandomCactus(40, rng),
	}
	for i := 0; i < 4; i++ {
		raw[fmt.Sprintf("random%d", i)] = randomCutGraph(20, 0.08, rng)
	}
	raw["cliquependants8"] = gen.CliquePendants(8)
	raw["union"] = graph.DisjointUnion(gen.Cycle(9), gen.RandomCactus(20, rng))
	return raw
}

// cutFamilies returns rawCutFamilies twin-reduced, as the MDS driver
// reduces its input.
func cutFamilies() map[string]*graph.CSR {
	raw := rawCutFamilies()
	out := make(map[string]*graph.CSR, len(raw))
	for name, g := range raw {
		out[name], _ = graph.TwinReduceCSR(g.Freeze())
	}
	return out
}

// TestLocalCutsC2MatchSpec runs LocalCutsC2Workers on the unreduced
// families (the vertex-cover variant has no TwinReduce) at r1 ∈ 1..4,
// r2 ∈ 2..4 and 1/2/3/8 workers, and compares X with LocalOneCuts and C2
// with the endpoints of the pairs IsLocalTwoCut admits.
func TestLocalCutsC2MatchSpec(t *testing.T) {
	for name, g := range rawCutFamilies() {
		c := g.Freeze()
		want1 := map[int][]int{}
		want2 := map[int][]int{}
		for r := 1; r <= 4; r++ {
			want1[r] = LocalOneCuts(g, r)
			if r >= 2 {
				for _, p := range LocalTwoCuts(g, r) {
					want2[r] = append(want2[r], p.U, p.V)
				}
				want2[r] = graph.Dedup(want2[r])
			}
		}
		for r1 := 1; r1 <= 4; r1++ {
			for r2 := 2; r2 <= 4; r2++ {
				for _, w := range []int{1, 2, 3, 8} {
					x, c2 := LocalCutsC2Workers(c, r1, r2, w, graph.NewArena())
					if !graph.EqualSets(x, want1[r1]) {
						t.Errorf("%s r1=%d r2=%d workers=%d: X = %v, spec %v", name, r1, r2, w, x, want1[r1])
					}
					if !graph.EqualSets(c2, want2[r2]) {
						t.Errorf("%s r1=%d r2=%d workers=%d: C2 = %v, spec %v", name, r1, r2, w, c2, want2[r2])
					}
				}
			}
		}
	}
}

// TestCutsCSRMatchSpecAtEveryWorkerCount runs LocalCutsWorkers at every
// pair of radii r1 ∈ 1..4, r2 ∈ 2..4 and compares X and I with the
// *graph.Graph spec detectors, and every worker count with one worker.
func TestCutsCSRMatchSpecAtEveryWorkerCount(t *testing.T) {
	for name, c := range cutFamilies() {
		spec := graph.FromCSR(c)
		want1 := map[int][]int{}
		want2 := map[int][]int{}
		for r := 1; r <= 4; r++ {
			want1[r] = LocalOneCuts(spec, r)
			if r >= 2 {
				want2[r] = LocallyInterestingVertices(spec, r)
			}
		}
		for r1 := 1; r1 <= 4; r1++ {
			for r2 := 2; r2 <= 4; r2++ {
				var one1, one2 []int
				for _, w := range []int{1, 2, 3, 8} {
					got1, got2 := LocalCutsWorkers(c, r1, r2, w, graph.NewArena())
					if !graph.EqualSets(got1, want1[r1]) {
						t.Errorf("%s r1=%d r2=%d workers=%d: X = %v, spec %v", name, r1, r2, w, got1, want1[r1])
					}
					if !graph.EqualSets(got2, want2[r2]) {
						t.Errorf("%s r1=%d r2=%d workers=%d: I = %v, spec %v", name, r1, r2, w, got2, want2[r2])
					}
					if w == 1 {
						one1, one2 = got1, got2
					} else if !graph.EqualSets(got1, one1) || !graph.EqualSets(got2, one2) {
						t.Errorf("%s r1=%d r2=%d: at %d workers X, I = %v, %v; at 1 = %v, %v", name, r1, r2, w, got1, got2, one1, one2)
					}
				}
			}
		}
	}
}

func TestLocalCutsCSREdgeCases(t *testing.T) {
	a := graph.NewArena()
	// Single vertex, single edge, triangle: no cuts anywhere.
	for _, n := range []int{1, 2, 3} {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				g.AddEdge(u, v)
			}
		}
		if got := LocalOneCutsCSR(g.Freeze(), 3, a); len(got) != 0 {
			t.Errorf("K%d: unexpected local 1-cuts %v", n, got)
		}
		if got := LocallyInterestingVerticesCSR(g.Freeze(), 3, a); len(got) != 0 {
			t.Errorf("K%d: unexpected interesting vertices %v", n, got)
		}
	}
	// A path's interior vertices are local 1-cuts at any radius.
	p := graph.New(5)
	for i := 0; i < 4; i++ {
		p.AddEdge(i, i+1)
	}
	if got := LocalOneCutsCSR(p.Freeze(), 2, a); !graph.EqualSets(got, []int{1, 2, 3}) {
		t.Errorf("path local 1-cuts = %v, want [1 2 3]", got)
	}
}
