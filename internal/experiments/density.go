package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// DensityTableSpec declares the shallow-minor densities of the workload
// classes next to the related-work ratio formulas they parameterize: [18]
// gives ratio ∇_1^O(t·∇_1) for K_{t,t}-subgraph-free graphs and [12]
// improves the dependence; the point of the paper is that its own ratio
// (50) has no such dependence. The table shows the measured ∇_0/∇_1 lower
// bounds and the resulting magnitude of the [18]-style exponent. One task
// per workload class.
func DensityTableSpec(n int) Spec {
	s := Spec{
		Name:   "density",
		Title:  "Workload densities — ∇_0/∇_1 lower bounds and the [18]-style ratio exponent they drive",
		Header: []string{"class", "n", "nabla0 >=", "nabla1 >=", "degeneracy", "[18]-style ratio ~ nabla1^(t*nabla1), t=5"},
	}
	instances := []struct {
		name  string
		build func(rng *rand.Rand) *graph.Graph
	}{
		{"tree", func(rng *rand.Rand) *graph.Graph { return gen.RandomTree(n, rng) }},
		{"cactus", func(rng *rand.Rand) *graph.Graph { return gen.RandomCactus(n, rng) }},
		{"outerplanar", func(rng *rand.Rand) *graph.Graph { return gen.MaximalOuterplanar(n, rng) }},
		{"ding-mixed T=5", func(rng *rand.Rand) *graph.Graph {
			return ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: n, T: 5}, rng)
		}},
		{"grid", func(*rand.Rand) *graph.Graph { return gen.Grid(intSqrt(n), intSqrt(n)) }},
	}
	for _, inst := range instances {
		s.Tasks = append(s.Tasks, Task{Row: inst.name, Run: func(seed int64) ([][]string, error) {
			g := inst.build(rand.New(rand.NewSource(seed)))
			n0 := g.Nabla0LowerBound()
			n1 := g.Nabla1LowerBound()
			expFormula := math.Pow(math.Max(n1, 1.01), 5*n1)
			return [][]string{{inst.name, fmt.Sprint(g.N()),
				fmt.Sprintf("%.2f", n0), fmt.Sprintf("%.2f", n1),
				fmt.Sprint(g.Degeneracy()), fmt.Sprintf("%.1f", expFormula)}}, nil
		}})
	}
	return s
}
