package experiments

import (
	"fmt"
	"math/rand"

	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/mds"
)

// BaselinesSpec declares the baseline contrast: the phase-based
// distributed greedy on growing instances climbs with n while the paper's
// algorithms stay at a fixed round budget — the introduction's motivation
// made measurable. One task per n.
func BaselinesSpec(ns []int) Spec {
	s := Spec{
		Name:   "baselines",
		Title:  "Baselines — distributed greedy phases grow with n; the paper's algorithms stay constant",
		Header: []string{"n", "greedy |S|", "greedy phases", "D2 |S| (5 rounds)", "Alg1 |S| (const rounds)", "OPT"},
	}
	for _, n := range ns {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d", n), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			g := ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: n, T: 5}, rng)
			greedySol, phases := core.GreedyDistributed(g)
			c := g.Freeze()
			d2 := core.D2(c)
			alg1, err := core.Alg1(g, core.PracticalParams())
			if err != nil {
				return nil, fmt.Errorf("baselines n=%d: %w", n, err)
			}
			opt, err := mds.ExactMDS(c, mds.ExactOptions{})
			if err != nil {
				return nil, fmt.Errorf("baselines opt n=%d: %w", n, err)
			}
			return [][]string{{fmt.Sprint(g.N()), fmt.Sprint(len(greedySol)), fmt.Sprint(phases),
				fmt.Sprint(len(d2.S)), fmt.Sprint(len(alg1.S)), fmt.Sprint(len(opt))}}, nil
		}})
	}
	return s
}
