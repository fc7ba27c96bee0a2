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

// BenchmarkCuts times the Cuts stage as the pipeline runs it
// (LocalCutsWorkers) on twin-reduced grid, ding and cactus instances: at
// r1 = r2 = r, at one worker and at GOMAXPROCS; once on ding at r1 = 2,
// r2 = 4, where the 1-cut test runs on its own ball; and once at the
// paper's radii for t = 5 (R1 = 217, R2 = 369, where every ball covers its
// component) on one worker. Each row reuses one arena across iterations,
// as the drivers reuse theirs.
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
	run := func(name string, c *graph.CSR, r1, r2, w int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			a := graph.NewArena()
			for b.Loop() {
				x, i := LocalCutsWorkers(c, r1, r2, w, a)
				cutsSink = len(x) + len(i)
			}
		})
	}
	for _, f := range families {
		c, _ := graph.TwinReduceCSR(f.g.Freeze())
		for _, r := range []int{1, 2, 4} {
			for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
				run(fmt.Sprintf("%s/r=%d/workers=%d", f.name, r, w), c, r, r, w)
			}
		}
		if f.name == "dingMixed2000" {
			run(f.name+"/r1=2,r2=4/workers=1", c, 2, 4, 1)
		}
	}
	paper := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 1200, T: 5}, rand.New(rand.NewSource(1)))
	c, _ := graph.TwinReduceCSR(paper.Freeze())
	run("dingMixed1200/paper/workers=1", c, 217, 369, 1)
}
