package graph_test

import (
	"math/rand"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// CSR-vs-adjacency BFS benchmarks: the same graphs traversed through the
// sorted adjacency lists and through the frozen flat-array view. Run with
// -benchmem to see that either path allocates only dist + queue. The grid
// pair measures the low-degree regime, the GNP pair the denser one where
// the flat arrays pay off.

func benchBFS(b *testing.B, g *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := g.BFSFrom(i % g.N())
		if dist[0] < 0 && i%g.N() == 0 {
			b.Fatal("unreachable source")
		}
	}
}

func BenchmarkBFSFromAdjacency(b *testing.B) {
	benchBFS(b, gen.Grid(100, 100))
}

func BenchmarkBFSFromCSR(b *testing.B) {
	g := gen.Grid(100, 100)
	g.Freeze()
	benchBFS(b, g)
}

func denseGNP() *graph.Graph {
	return gen.GNPConnected(4000, 0.005, rand.New(rand.NewSource(1)))
}

func BenchmarkBFSFromAdjacencyDense(b *testing.B) {
	benchBFS(b, denseGNP())
}

func BenchmarkBFSFromCSRDense(b *testing.B) {
	g := denseGNP()
	g.Freeze()
	benchBFS(b, g)
}

// BenchmarkBlocks times the block-tree DFS the Cuts kernel runs once per
// call, on a one-block grid and on a cactus, which is nearly all blocks.
func BenchmarkBlocks(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid12x12", gen.Grid(12, 12)},
		{"cactus2000", gen.RandomCactus(2000, rand.New(rand.NewSource(1)))},
	} {
		c := tc.g.Freeze()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			a := graph.NewArena()
			for b.Loop() {
				c.Blocks(a)
			}
		})
	}
}
