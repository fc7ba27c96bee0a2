package cuts

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// cutsSink keeps the benchmarked results live.
var cutsSink int

// BenchmarkCuts times the Cuts stage — the 1-cut and the 2-cut detector at
// the same radius — on twin-reduced grid, ding and cactus instances, at
// one worker and at GOMAXPROCS. Each worker count reuses one arena across
// iterations, as the drivers reuse theirs.
func BenchmarkCuts(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid12x12", gen.Grid(12, 12)},
		{"dingMixed2000", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 2000, T: 5}, rng)},
		{"cactus2000", gen.RandomCactus(2000, rng)},
	}
	for _, f := range families {
		c, _ := graph.TwinReduceCSR(f.g.Freeze())
		for _, r := range []int{1, 2, 4} {
			for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
				b.Run(fmt.Sprintf("%s/r=%d/workers=%d", f.name, r, w), func(b *testing.B) {
					b.ReportAllocs()
					a := graph.NewArena()
					for b.Loop() {
						cutsSink = len(LocalOneCutsWorkers(c, r, w, a)) +
							len(LocallyInterestingVerticesWorkers(c, r, w, a))
					}
				})
			}
		}
	}
}
