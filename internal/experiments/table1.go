package experiments

import (
	"fmt"
	"math/rand"

	"localmds/internal/asdim"
	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// Table1Config scales the Table 1 reproduction.
type Table1Config struct {
	// N is the target instance size for ratio measurements (capped by the
	// exact solver: OPT is computed exactly).
	N int
	// ProcessN is the instance size for round measurements with the real
	// message-passing simulator (smaller, since paper-scale radii force
	// whole-graph views).
	ProcessN int
}

// Table1Spec declares the paper's Table 1 reproduction: one task per graph
// class, each running the corresponding algorithm from this repository on
// in-class workloads and reporting the measured approximation ratio and
// measured LOCAL rounds next to the paper's bound.
func Table1Spec(cfg Table1Config) Spec {
	s := Spec{
		Name:  "table1",
		Title: "Table 1 — constant-round MDS approximation on H-minor-free classes (paper bound vs measured)",
		Header: []string{
			"class", "algorithm", "paper ratio", "paper rounds",
			"measured ratio", "measured rounds", "n",
		},
	}

	// Trees (K3-minor-free), folklore 3-approx in 2 rounds.
	s.Tasks = append(s.Tasks, Task{Row: "trees", Run: func(seed int64) ([][]string, error) {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(cfg.N, rng).Freeze()
		sol := core.TreeMDS(g)
		opt, err := mds.ExactMDS(g, mds.ExactOptions{})
		if err != nil {
			return nil, fmt.Errorf("trees: %w", err)
		}
		small := gen.RandomTree(cfg.ProcessN, rng).Freeze()
		_, stats, err := core.RunTreeMDS(small, nil)
		if err != nil {
			return nil, fmt.Errorf("trees process: %w", err)
		}
		return [][]string{{"trees (K3)", "deg>=2 folklore", "3", "2",
			ratioString(len(sol), len(opt)), fmt.Sprint(stats.Rounds), fmt.Sprint(g.N())}}, nil
	}})

	// Outerplanar (K4, K_{2,3}): our Algorithm 1 with practical radii (the
	// paper cites [4]'s specialized 5-approximation). OPT comes from the
	// treewidth-2 DP.
	s.Tasks = append(s.Tasks, Task{Row: "outerplanar", Run: func(seed int64) ([][]string, error) {
		rng := rand.New(rand.NewSource(seed))
		g := gen.MaximalOuterplanar(cfg.N, rng).Freeze()
		res, err := core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
		if err != nil {
			return nil, fmt.Errorf("outerplanar: %w", err)
		}
		opt, err := mds.ExactMDS(g, mds.ExactOptions{})
		if err != nil {
			return nil, fmt.Errorf("outerplanar opt: %w", err)
		}
		return [][]string{{"outerplanar (K4,K2,3)", "Alg1 practical", "5 [4]", "2 [4]",
			ratioString(len(res.S), len(opt)), fmt.Sprintf("<=%d est", res.RoundsEstimate), fmt.Sprint(g.N())}}, nil
	}})

	// Planar (K5, K_{3,3}): Algorithm 1 on grids (the paper cites [12]'s
	// 11+eps). Grids are the exact solver's worst case; the bitset engine
	// proves OPT up to side 10 (n=100) in under 0.1s where the old branch
	// and bound was capped at side 7 (2s at side 9, unbounded beyond), so
	// the row runs at the full intSqrt(N) for the default N=120.
	s.Tasks = append(s.Tasks, Task{Row: "planar", Run: func(int64) ([][]string, error) {
		side := gridSide(cfg.N)
		g := gen.Grid(side, side).Freeze()
		res, err := core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
		if err != nil {
			return nil, fmt.Errorf("planar: %w", err)
		}
		opt, err := mds.ExactMDS(g, mds.ExactOptions{})
		if err != nil {
			return nil, fmt.Errorf("planar opt: %w", err)
		}
		return [][]string{{"planar (K5,K3,3)", "Alg1 practical", "11+eps [12]", "O_eps(1) [12]",
			ratioString(len(res.S), len(opt)), fmt.Sprintf("<=%d est", res.RoundsEstimate), fmt.Sprint(g.N())}}, nil
	}})

	// K_{1,t}-minor-free (max degree < t): take-all, 0 rounds.
	s.Tasks = append(s.Tasks, Task{Row: "k1t", Run: func(int64) ([][]string, error) {
		deg := 4
		rl, err := gen.RegularLike(cfg.N, deg)
		if err != nil {
			return nil, fmt.Errorf("k1t: %w", err)
		}
		g := rl.Freeze()
		sol := core.TakeAllMDS(g)
		opt, err := mds.ExactMDS(g, mds.ExactOptions{})
		if err != nil {
			return nil, fmt.Errorf("k1t opt: %w", err)
		}
		tt := deg + 2 // graph is K_{1,deg+1}-minor-free: Δ = deg <= t-1
		return [][]string{{fmt.Sprintf("K1,%d-minor-free", tt), "take all", fmt.Sprint(tt), "0",
			ratioString(len(sol), len(opt)), "1 (silent)", fmt.Sprint(g.N())}}, nil
	}})

	// K_{2,t}-minor-free, Theorem 4.4 (2t-1 in 3 rounds) and Theorem 4.1
	// (50 in O_t(1) rounds), for a sweep of t. Both rows of each t measure
	// the same instances, so they stay one task.
	for _, tt := range []int{3, 4, 5, 6} {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("k2t-t%d", tt), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			g, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: cfg.N, T: tt}, rng)
			if err != nil {
				return nil, err
			}
			small, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: cfg.ProcessN, T: tt}, rng)
			if err != nil {
				return nil, err
			}
			opt, err := mds.ExactMDS(g, mds.ExactOptions{})
			if err != nil {
				return nil, fmt.Errorf("k2t opt: %w", err)
			}
			d2 := core.D2(g)
			_, d2stats, err := core.RunD2(small, nil)
			if err != nil {
				return nil, fmt.Errorf("k2t d2 process: %w", err)
			}
			res, err := core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
			if err != nil {
				return nil, fmt.Errorf("k2t alg1: %w", err)
			}
			_, a1stats, err := core.RunAlg1(small, nil, core.PracticalParams())
			if err != nil {
				return nil, fmt.Errorf("k2t alg1 process: %w", err)
			}
			return [][]string{
				{fmt.Sprintf("K2,%d-minor-free", tt), "Thm 4.4 (D2)",
					fmt.Sprint(2*tt - 1), "3",
					ratioString(len(d2.S), len(opt)), fmt.Sprint(d2stats.Rounds), fmt.Sprint(g.N())},
				{fmt.Sprintf("K2,%d-minor-free", tt), "Thm 4.1 (Alg1)",
					"50", "O_t(1)",
					ratioString(len(res.S), len(opt)), fmt.Sprint(a1stats.Rounds), fmt.Sprint(g.N())},
			}, nil
		}})
	}

	// K_{s,t}/K_t-minor-free (cited bounds are astronomically large; our
	// Algorithm 2 runs with an asymptotic-dimension-2 control function on
	// planar-ish inputs as the executable counterpart).
	s.Tasks = append(s.Tasks, Task{Row: "kt", Run: func(int64) ([][]string, error) {
		side := gridSide(cfg.N)
		g := gen.Grid(side, side).Freeze()
		res, err := core.Alg2(g, func(r int) int { return 2 * r }, 0)
		if err != nil {
			return nil, fmt.Errorf("kt: %w", err)
		}
		opt, err := mds.ExactMDS(g, mds.ExactOptions{})
		if err != nil {
			return nil, fmt.Errorf("kt opt: %w", err)
		}
		return [][]string{{"K_t-minor-free", "Alg2 (asdim d, f)", "t^O(t^2 sqrt(log t)) [18]", "7 [18]",
			ratioString(len(res.S), len(opt)), fmt.Sprintf("<=%d est", res.RoundsEstimate), fmt.Sprint(g.N())}}, nil
	}})
	return s
}

// MVCTableSpec declares the vertex-cover variants (Theorem 4.4's t-approx
// and the Algorithm 1 variant described after Theorem 4.3).
func MVCTableSpec(cfg Table1Config) Spec {
	s := Spec{
		Name:   "mvc",
		Title:  "Vertex Cover variants (Theorem 4.4 and the Algorithm 1 MVC variant)",
		Header: []string{"class", "algorithm", "paper ratio", "measured ratio", "n"},
	}
	for _, tt := range []int{3, 4, 5} {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("k2t-t%d", tt), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			g, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: cfg.N, T: tt}, rng)
			if err != nil {
				return nil, err
			}
			opt, err := mds.ExactMVC(g, mds.ExactOptions{})
			if err != nil {
				return nil, fmt.Errorf("mvc opt: %w", err)
			}
			d2 := core.MVCD2(g)
			a1, err := core.MVCAlg1(g, core.PracticalParams(), core.PipelineOptions{})
			if err != nil {
				return nil, fmt.Errorf("mvc alg1: %w", err)
			}
			return [][]string{
				{fmt.Sprintf("K2,%d-minor-free", tt), "Thm 4.4 MVC",
					fmt.Sprint(tt), ratioString(len(d2.S), len(opt)), fmt.Sprint(g.N())},
				{fmt.Sprintf("K2,%d-minor-free", tt), "Alg1 MVC variant",
					"O(1)", ratioString(len(a1.S), len(opt)), fmt.Sprint(g.N())},
			}, nil
		}})
	}
	// Regular graphs: 0-round 2-approximation (§1). The circulant has
	// treewidth 4, so exact MVC falls to branch and bound, which is
	// exponential here (7s at n=120 vs 0.3s at n=96); like the grid rows,
	// the size is capped — by vertex-transitivity the measured ratio is
	// size-independent anyway.
	s.Tasks = append(s.Tasks, Task{Row: "regular", Run: func(int64) ([][]string, error) {
		rl, err := gen.RegularLike(minInt(cfg.N, 96), 4)
		if err != nil {
			return nil, err
		}
		g := rl.Freeze()
		opt, err := mds.ExactMVC(g, mds.ExactOptions{})
		if err != nil {
			return nil, err
		}
		sol := core.RegularMVC(g)
		return [][]string{{"4-regular", "take all (folklore)", "2",
			ratioString(len(sol), len(opt)), fmt.Sprint(g.N())}}, nil
	}})
	return s
}

// Proposition31Spec declares the local-to-global transfer measurement: on
// trees with BFS-annulus covers, the per-class sums of B-dominating optima
// are bounded by (d+1) MDS(G) via Lemma 5.2, which is the engine of
// Proposition 3.1. One task per instance family.
func Proposition31Spec(cfg Table1Config) Spec {
	s := Spec{
		Name:   "prop31",
		Title:  "Proposition 3.1 / Lemma 5.2 — per-class domination sums vs (d+1) MDS",
		Header: []string{"instance", "d+1", "sum_i sum_B MDS(G,N[B])", "(d+1)*MDS", "ok"},
	}
	instances := []struct {
		name  string
		build func(rng *rand.Rand) *graph.Graph
	}{
		{"tree", func(rng *rand.Rand) *graph.Graph { return gen.RandomTree(cfg.N, rng) }},
		{"cactus", func(rng *rand.Rand) *graph.Graph { return gen.RandomCactus(cfg.N, rng) }},
		{"cycle", func(*rand.Rand) *graph.Graph { return gen.Cycle(cfg.N) }},
	}
	for _, inst := range instances {
		s.Tasks = append(s.Tasks, Task{Row: inst.name, Run: func(seed int64) ([][]string, error) {
			g := inst.build(rand.New(rand.NewSource(seed)))
			cover, err := asdim.BFSAnnulusCover(g, 5, 2)
			if err != nil {
				return nil, err
			}
			c := g.Freeze()
			opt, err := mds.ExactMDS(c, mds.ExactOptions{})
			if err != nil {
				return nil, err
			}
			total := 0
			for _, class := range cover.Classes {
				comps := g.RComponents(class, 5)
				family := asdim.RSeparatedSubfamily(g, comps)
				for _, b := range family {
					sol, err := mds.ExactBDominating(c, g.BallOfSet(b, 1), mds.ExactOptions{})
					if err != nil {
						return nil, err
					}
					total += len(sol)
				}
			}
			bound := 2 * len(opt)
			return [][]string{{inst.name, "2", fmt.Sprint(total), fmt.Sprint(bound),
				fmt.Sprint(total <= bound)}}, nil
		}})
	}
	return s
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

// MaxExactGridSide caps the side length of grid rows whose OPT is
// computed exactly. Grids are the exact solver's adversarial case: the
// bitset engine proves side 10 (n=100) in ~0.1s and side 11 in ~2s on the
// CI box, while side 12 is out of reach for any of the repository's
// solvers — so sweeps with -n beyond 121 clamp here rather than stall.
const MaxExactGridSide = 10

// gridSide is the exact-OPT grid side for a target instance size n.
func gridSide(n int) int {
	return minInt(intSqrt(n), MaxExactGridSide)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
