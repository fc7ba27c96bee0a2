package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// TestAppendSeparatorsMatchesProbes checks the articulation-point DFS
// against one component labeling per ball vertex: for every u and r, it
// reports false exactly when u's neighbors are split in N^r[u] - u, and
// otherwise appends exactly the v ∈ N^r[u] for which u touches two
// components of N^r[u] - {u, v}, ascending, after whatever dst held. The inputs are the Table 1 families
// and sparse random graphs, twin-reduced as the drivers reduce them.
func TestAppendSeparatorsMatchesProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	raw := map[string]*graph.Graph{
		"grid8x9":       gen.Grid(8, 9),
		"dingMixed120":  ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 120, T: 5}, rng),
		"outerplanar20": gen.MaximalOuterplanar(20, rng),
		"cactus40":      gen.RandomCactus(40, rng),
	}
	for i := 0; i < 4; i++ {
		g := graph.New(20)
		for u := 0; u < 20; u++ {
			for v := u + 1; v < 20; v++ {
				if rng.Float64() < 0.1 || (v == u+1 && u%5 == 0) {
					g.AddEdge(u, v)
				}
			}
		}
		raw[fmt.Sprintf("random%d", i)] = g
	}
	a := graph.NewArena()
	prefix := []int32{-7}
	for name, g := range raw {
		c, _ := graph.TwinReduceCSR(g.Freeze())
		tables := 0
		for r := 1; r <= 5; r++ {
			for u := range c.N() {
				ball := slices.Clone(c.MarkBall(u, -1, r, a))
				got, ok := c.AppendSeparators(slices.Clone(prefix), u, a)
				if split := splits(c, u, -1, a); ok == split {
					t.Fatalf("%s r=%d u=%d: AppendSeparators ok = %v, labeling split = %v", name, r, u, ok, split)
				}
				if !slices.Equal(got[:1], prefix) {
					t.Fatalf("%s r=%d u=%d: dst prefix overwritten: %v", name, r, u, got)
				}
				if !ok {
					if len(got) != 1 {
						t.Fatalf("%s r=%d u=%d: split neighbors but appended %v", name, r, u, got[1:])
					}
					continue
				}
				tables++
				var want []int32
				for _, v := range ball {
					if int(v) != u && splits(c, u, int(v), a) {
						want = append(want, v)
					}
				}
				slices.Sort(want)
				if !slices.Equal(got[1:], want) {
					t.Fatalf("%s r=%d u=%d: separators %v, labelings %v", name, r, u, got[1:], want)
				}
			}
		}
		if tables == 0 {
			t.Fatalf("%s: no vertex had connected neighbors", name)
		}
	}
}

// splits reports whether u's neighbors lie in two components of the
// current ball - {u, v} (v < 0 removes only u), from one labeling.
func splits(c *graph.CSR, u, v int, a *graph.Arena) bool {
	c.LabelComponents(u, v, a)
	touched, _ := c.ComponentsSeenBy(u, a)
	return touched >= 2
}
