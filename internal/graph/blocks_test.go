package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// TestBlocksArticulationMatchesDeletion checks the Art flags against
// their definition: deleting v splits v's component.
func TestBlocksArticulationMatchesDeletion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := graph.DisjointUnion(gen.RandomCactus(4+rng.Intn(20), rng), gen.GNPConnected(3+rng.Intn(8), 0.3, rng))
		bt := g.Freeze().Blocks(graph.NewArena())
		base := g.NumComponents()
		for v := range g.N() {
			var keep []int
			for w := range g.N() {
				if w != v {
					keep = append(keep, w)
				}
			}
			h, _ := g.Induced(keep)
			if split := h.NumComponents() > base-boolInt(g.Degree(v) == 0); split != bt.Art[v] {
				t.Fatalf("trial %d: vertex %d Art = %v, deleting it splits = %v", trial, v, bt.Art[v], split)
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestMarkBlockBallMatchesBall checks MarkBlockBall against the ball of
// the whole graph: inside block b it marks N^r[{u, v}] ∩ b, and with
// b < 0 the ball's vertices in u's blocks; open is the ball's
// articulation points other than u and v closer than r.
func TestMarkBlockBallMatchesBall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := graph.NewArena()
	for trial := 0; trial < 20; trial++ {
		g := graph.DisjointUnion(gen.RandomCactus(30, rng), gen.MaximalOuterplanar(8, rng))
		c := g.Freeze()
		bt := c.Blocks(a)
		for u := range g.N() {
			for _, v := range []int{-1, rng.Intn(g.N())} {
				b := -1
				if v >= 0 {
					if b = bt.Shared(u, v); b < 0 {
						continue
					}
				}
				for _, r := range []int{0, 1, 2, 3, -1} {
					src := []int{u}
					if v >= 0 {
						src = append(src, v)
					}
					inBall := func(w int) bool {
						return w == u || w == v || (b >= 0 && bt.In(int32(w), int32(b))) || (b < 0 && bt.Shared(u, w) >= 0)
					}
					var want, wantOpen []int
					dist := distTo(g, src)
					for w, d := range dist {
						if d >= 0 && (r < 0 || d <= r) && inBall(w) {
							want = append(want, w)
							if bt.Art[w] && w != u && w != v && (r < 0 || d < r) {
								wantOpen = append(wantOpen, w)
							}
						}
					}
					ball, open := c.MarkBlockBall(u, v, r, bt, b, a)
					got, gotOpen := sorted(ball), sorted(open)
					if !slices.Equal(got, want) || !slices.Equal(gotOpen, wantOpen) {
						t.Fatalf("trial %d u=%d v=%d b=%d r=%d: ball %v open %v, want %v open %v", trial, u, v, b, r, got, gotOpen, want, wantOpen)
					}
				}
			}
		}
	}
}

// distTo returns every vertex's distance to the nearest source, -1 when
// unreachable.
func distTo(g *graph.Graph, src []int) []int {
	out := g.BFSFrom(src[0])
	for _, s := range src[1:] {
		for w, d := range g.BFSFrom(s) {
			if d >= 0 && (out[w] < 0 || d < out[w]) {
				out[w] = d
			}
		}
	}
	return out
}

func sorted(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	slices.Sort(out)
	return out
}
