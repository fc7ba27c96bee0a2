package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"localmds/internal/cuts"
	"localmds/internal/ding"
	"localmds/internal/graph"
)

// TestArenaStampWrapKeepsCutsExact runs the cut detectors across the wrap
// of the arena's generation counters, at every wrap point over the first
// few hundred generations of a run. Before each run every vertex carries
// the stamp 1 in both stamp arrays, as if marked 2^31 generations ago: a
// wrap that restarted the counters without clearing would make all of
// those stale stamps current at once and change the cut sets. The pipeline
// entry points (X with I, and X with the vertex-cover variant's C2) run at
// r1 = 2, r2 = 3 too, so a wrap between a 1-cut ball and a separator ball
// is crossed as well.
func TestArenaStampWrapKeepsCutsExact(t *testing.T) {
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 80, T: 5}, rand.New(rand.NewSource(5)))
	c := g.Freeze()
	const r, r1 = 3, 2
	want1, want2 := cuts.LocalOneCuts(g, r), cuts.LocallyInterestingVertices(g, r)
	wantX := cuts.LocalOneCuts(g, r1)
	wantC2 := localTwoCutVertices(g, r)
	staleArena := func(left int) *graph.Arena {
		a := graph.NewArena()
		c.MarkBall(0, -1, -1, a)   // mark stamp 1 on every vertex (g is connected)
		c.LabelComponents(0, 1, a) // seen stamp 1 on every vertex
		a.SetGenerations(math.MaxInt32 - int32(left))
		return a
	}
	for left := 0; left <= 2*c.N(); left++ {
		if got := cuts.LocalOneCutsCSR(c, r, staleArena(left)); !graph.EqualSets(got, want1) {
			t.Fatalf("wrap after %d generations: LocalOneCuts = %v, spec %v", left, got, want1)
		}
		if got := cuts.LocallyInterestingVerticesCSR(c, r, staleArena(left)); !graph.EqualSets(got, want2) {
			t.Fatalf("wrap after %d generations: LocallyInterestingVertices = %v, spec %v", left, got, want2)
		}
		if x, i := cuts.LocalCutsWorkers(c, r1, r, 1, staleArena(left)); !graph.EqualSets(x, wantX) || !graph.EqualSets(i, want2) {
			t.Fatalf("wrap after %d generations: LocalCutsWorkers(r1=%d, r2=%d) = %v, %v; spec %v, %v", left, r1, r, x, i, wantX, want2)
		}
		if x, c2 := cuts.LocalCutsC2Workers(c, r1, r, 1, staleArena(left)); !graph.EqualSets(x, wantX) || !graph.EqualSets(c2, wantC2) {
			t.Fatalf("wrap after %d generations: LocalCutsC2Workers(r1=%d, r2=%d) = %v, %v; spec %v, %v", left, r1, r, x, c2, wantX, wantC2)
		}
	}
}

// localTwoCutVertices returns, ascending, every endpoint of an r-local
// minimal 2-cut of g, enumerated with cuts.IsLocalTwoCut.
func localTwoCutVertices(g *graph.Graph, r int) []int {
	in := make([]bool, g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Ball(u, r) {
			if v > u && cuts.IsLocalTwoCut(g, u, v, r) {
				in[u], in[v] = true, true
			}
		}
	}
	var out []int
	for v, ok := range in {
		if ok {
			out = append(out, v)
		}
	}
	return out
}
