package mds

import (
	"math/rand"
	"os"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// BenchmarkExactMDS is the before/after surface for the bitset engine: it
// forces the branch-and-bound path (no width-2 DP) so
// engine and reference search the same problem. grid-NxN is the old
// solver's documented worst case — the reason the Table 1 grid row was
// capped at side 7. The reference ladder stops at 9x9 (~2s/op here);
// ding-100 under the reference does not terminate in CI time at all
// (>300s for the first iteration), which is why the old benchmark only
// ever exercised it through the treewidth DP. EXPERIMENTS.md "Exact
// solver" records the numbers.
func BenchmarkExactMDS(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct {
		name    string
		g       *graph.Graph
		refSkip string // non-empty: why the reference leg is not run
	}{
		{"ding-50", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 50, T: 5}, rng), ""},
		{"ding-100", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 100, T: 5}, rand.New(rand.NewSource(12))), "reference needs >300s per op"},
		{"grid-6x6", gen.Grid(6, 6), ""},
		{"grid-7x7", gen.Grid(7, 7), ""},
		{"grid-8x8", gen.Grid(8, 8), ""},
		{"grid-9x9", gen.Grid(9, 9), ""},
		{"grid-10x10", gen.Grid(10, 10), "reference needs >>10min per op"},
		{"grid-11x11", gen.Grid(11, 11), "reference needs >>10min per op"},
	}
	for _, tc := range cases {
		target := allVertices(tc.g.N())
		b.Run(tc.name+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				sol, err := newEngine(tc.g.Freeze(), target).solve(ExactOptions{})
				if err != nil {
					b.Fatal(err)
				}
				size = len(sol)
			}
			b.ReportMetric(float64(size), "opt")
		})
		b.Run(tc.name+"/reference", func(b *testing.B) {
			if tc.refSkip != "" && os.Getenv("LOCALMDS_BENCH_SLOW") == "" {
				b.Skipf("%s (set LOCALMDS_BENCH_SLOW=1 to run)", tc.refSkip)
			}
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = len(referenceBDominating(tc.g, target))
			}
			b.ReportMetric(float64(size), "opt")
		})
	}
}
