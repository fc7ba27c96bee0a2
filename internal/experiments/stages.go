package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// StageProfileSpec declares the Algorithm 1 pipeline profile: one row per
// pipeline stage (TwinReduce → Cuts → Partition → ComponentSolve → Stitch)
// on three instance shapes — a connected ding Mixed instance, a grid, and a
// multi-component disjoint union that exercises the ComponentSolve
// fan-out. Wall times and allocation counts are measurements, so this
// table is NOT deterministic across runs or -parallel values; cmd/mdsbench
// therefore runs it only when asked for explicitly (-only stages), keeping
// the byte-identical guarantee of the default sweep intact.
func StageProfileSpec(n int) Spec {
	s := Spec{
		Name:   "stage-profile",
		Title:  "Algorithm 1 pipeline — per-stage profile (wall times nondeterministic by nature)",
		Header: []string{"instance", "stage", "items", "wall ms", "allocs"},
	}
	type instance struct {
		row   string
		build func(seed int64) *graph.Graph
	}
	instances := []instance{
		{"ding-mixed", func(seed int64) *graph.Graph {
			return ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: n, T: 5}, rand.New(rand.NewSource(seed)))
		}},
		{"grid", func(seed int64) *graph.Graph {
			side := 1
			for side*side < n {
				side++
			}
			return gen.Grid(side, side)
		}},
		{"multi-component", func(seed int64) *graph.Graph {
			// Grids keep their interior out of the cut sets, so a union of
			// grids leaves one residual component per grid — the shape that
			// exercises the ComponentSolve fan-out.
			side := 1
			for side*side < n/4 {
				side++
			}
			g := gen.Grid(side, side)
			for i := 0; i < 3; i++ {
				g = graph.DisjointUnion(g, gen.Grid(side, side))
			}
			return g
		}},
	}
	for _, inst := range instances {
		inst := inst
		s.Tasks = append(s.Tasks, Task{Row: inst.row, Run: func(seed int64) ([][]string, error) {
			g := inst.build(seed)
			res, err := core.Alg1(g, core.PracticalParams())
			if err != nil {
				return nil, fmt.Errorf("stage profile %s: %w", inst.row, err)
			}
			rows := make([][]string, 0, len(res.StageStats))
			for _, st := range res.StageStats {
				rows = append(rows, []string{
					inst.row, st.Name, fmt.Sprintf("%d %s", st.Items, st.Unit),
					fmt.Sprintf("%.3f", float64(st.Wall)/float64(time.Millisecond)),
					fmt.Sprint(st.Allocs),
				})
			}
			rows = append(rows, []string{inst.row, "total", fmt.Sprintf("n=%d m=%d", g.N(), g.M()),
				fmt.Sprintf("%.3f", float64(res.StageStats.TotalWall())/float64(time.Millisecond)), ""})
			return rows, nil
		}})
	}
	return s
}
