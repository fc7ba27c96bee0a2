package experiments

import (
	"fmt"
	"math/rand"

	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
)

// RadiusAblationSpec declares Algorithm 1's radius sweep on one instance:
// larger radii detect fewer local cuts (monotone, §2), shifting work from
// the cut phase to the brute-force phase. The paper's analysis needs the
// huge paper radii only for the proof; this table shows how the measured
// ratio, the cut-set sizes, and the residual diameter actually move with
// the radius. The sweep is a single task: every radius row must observe
// the same generated instance (and shares its exact-OPT computation).
func RadiusAblationSpec(n int, radii []int) Spec {
	s := Spec{
		Name:   "radius-ablation",
		Title:  "Ablation — Algorithm 1 radius sweep (ding Mixed, T=5)",
		Header: []string{"R1=R2", "|X|", "|I|", "components", "max diam", "|S|", "ratio", "rounds est"},
	}
	s.Tasks = append(s.Tasks, Task{Row: "sweep", Run: func(seed int64) ([][]string, error) {
		rng := rand.New(rand.NewSource(seed))
		g, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: n, T: 5}, rng)
		if err != nil {
			return nil, err
		}
		opt, err := mds.ExactMDS(g, mds.ExactOptions{})
		if err != nil {
			return nil, fmt.Errorf("radius ablation opt: %w", err)
		}
		var rows [][]string
		for _, r := range radii {
			p := core.Params{R1: r, R2: r}
			res, err := core.Alg1CSR(g, p, core.PipelineOptions{})
			if err != nil {
				return nil, fmt.Errorf("radius ablation r=%d: %w", r, err)
			}
			rows = append(rows, []string{fmt.Sprint(r), fmt.Sprint(len(res.X)), fmt.Sprint(len(res.I)),
				fmt.Sprint(len(res.Components)), fmt.Sprint(res.MaxComponentDiameter),
				fmt.Sprint(len(res.S)), ratioString(len(res.S), len(opt)),
				fmt.Sprint(res.RoundsEstimate)})
		}
		return rows, nil
	}})
	return s
}

// RoundsVsTSpec declares Theorem 4.1's "running time linear in t"
// measurement: the paper radii grow linearly in t, so the gather horizon
// (and hence the round count) does too. The distributed run uses
// scaled-down radii with the same linear shape (the paper values exceed
// any simulatable diameter). One task per t.
func RoundsVsTSpec(n int, ts []int) Spec {
	s := Spec{
		Name:   "rounds-vs-t",
		Title:  "Theorem 4.1 — rounds grow linearly in t (paper radii vs scaled measured)",
		Header: []string{"t", "paper R1", "paper R2", "paper gather radius", "scaled R1=R2", "measured rounds"},
	}
	for _, tt := range ts {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("t%d", tt), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			paper := core.PaperParams(tt)
			scaled := core.Params{R1: tt, R2: tt}
			g, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: n, T: tt}, rng)
			if err != nil {
				return nil, err
			}
			_, stats, err := core.RunAlg1(g, nil, scaled)
			if err != nil {
				return nil, fmt.Errorf("rounds-vs-t t=%d: %w", tt, err)
			}
			return [][]string{{fmt.Sprint(tt), fmt.Sprint(paper.R1), fmt.Sprint(paper.R2),
				fmt.Sprint(paper.GatherRadius()), fmt.Sprint(scaled.R1),
				fmt.Sprint(stats.Rounds)}}, nil
		}})
	}
	return s
}

// ScalingOptNodeBudget bounds the exact-OPT probe on the scaling rows
// whose instances are not treewidth-<=2 (the grids): the engine bails
// out deterministically after this many search nodes instead of stalling
// the sweep, and the row falls back to the certified 2-packing lower
// bound. The side-10 grid — the largest the sweep must prove — needs
// ~26k nodes; at ~18µs/node on the 400+-vertex over-budget rows, 60k
// nodes bounds each bailing row at ~1s. The sequential node count is
// input-determined, so the tables stay byte-identical at any -parallel.
const ScalingOptNodeBudget = 60_000

// ScalingSpec declares Algorithm 1's solution quality as n grows, on two
// families: ding Mixed instances (treewidth <= 2, so the DP supplies the
// true optimum at every size) and square grids (the exact engine's
// adversarial case). Grid rows beyond the solver's reach report the
// certified ratio upper bound |S|/opt_lb against the 2-packing lower
// bound in place of an exact ratio — a bound, not a measurement, but one
// that is provably valid at sizes where OPT is unobtainable. One task per
// row: the heaviest solve dominates, so rows load-balance across workers.
func ScalingSpec(ns []int) Spec {
	s := Spec{
		Name:   "scaling",
		Title:  "Scaling — Algorithm 1 on growing instances (exact OPT where feasible, certified 2-packing bound beyond)",
		Header: []string{"class", "n", "|S|", "OPT", "ratio", "opt_lb (2-packing)", "max comp diam"},
	}
	for _, n := range ns {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d", n), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			g, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: n, T: 5}, rng)
			if err != nil {
				return nil, err
			}
			res, err := core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
			if err != nil {
				return nil, fmt.Errorf("scaling n=%d: %w", n, err)
			}
			return []([]string){scalingRow("ding-mixed", g, res)}, nil
		}})
	}
	seenSides := map[int]bool{}
	for _, n := range ns {
		// The grid family is parameterized by the side, not the requested
		// n: label rows with the side (the instance has side^2 vertices)
		// and collapse requested sizes that round to the same grid, so no
		// two rows describe the same instance under different names.
		side := intSqrt(n)
		if seenSides[side] {
			continue
		}
		seenSides[side] = true
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("grid%d", side), Run: func(int64) ([][]string, error) {
			g := gen.Grid(side, side).Freeze()
			res, err := core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
			if err != nil {
				return nil, fmt.Errorf("scaling grid side=%d: %w", side, err)
			}
			return []([]string){scalingRow(fmt.Sprintf("grid-%dx%d", side, side), g, res)}, nil
		}})
	}
	return s
}

// scalingRow renders one scaling table row, degrading from the exact
// ratio to the certified |S|/opt_lb upper bound when the budgeted exact
// probe gives up (node budget exhausted or instance over the vertex cap).
func scalingRow(class string, c *graph.CSR, res *core.Alg1Result) []string {
	lb := len(mds.TwoPacking(c))
	optCell, ratioCell := "-", "-"
	if opt, err := mds.ExactMDS(c, mds.ExactOptions{MaxNodes: ScalingOptNodeBudget}); err == nil {
		optCell = fmt.Sprint(len(opt))
		ratioCell = ratioString(len(res.S), len(opt))
	} else if lb > 0 {
		ratioCell = fmt.Sprintf("<=%.3f certified", float64(len(res.S))/float64(lb))
	}
	return []string{class, fmt.Sprint(c.N()), fmt.Sprint(len(res.S)), optCell,
		ratioCell, fmt.Sprint(lb), fmt.Sprint(res.MaxComponentDiameter)}
}

// MessageFootprintSpec declares the CONGEST-distance measurement: total
// delivered words and the largest single message, per algorithm. All three
// rows run on the same instance, so they stay one task.
func MessageFootprintSpec(n int) Spec {
	s := Spec{
		Name:   "message-footprint",
		Title:  "LOCAL vs CONGEST — message footprint of the distributed algorithms",
		Header: []string{"algorithm", "n", "rounds", "messages", "total words", "max message words"},
	}
	s.Tasks = append(s.Tasks, Task{Row: "footprint", Run: func(seed int64) ([][]string, error) {
		rng := rand.New(rand.NewSource(seed))
		c, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: n, T: 5}, rng)
		if err != nil {
			return nil, err
		}
		_, d2stats, err := core.RunD2(c, nil)
		if err != nil {
			return nil, err
		}
		_, a1stats, err := core.RunAlg1(c, nil, core.Params{R1: 3, R2: 3})
		if err != nil {
			return nil, err
		}
		net, err := local.NewNetwork(c, nil)
		if err != nil {
			return nil, err
		}
		diam, _, _ := c.Diameter(graph.NewArena(), 0)
		_, gstats, err := local.GatherViews(net, diam+2)
		if err != nil {
			return nil, err
		}
		return [][]string{
			{"D2 (Thm 4.4)", fmt.Sprint(c.N()), fmt.Sprint(d2stats.Rounds),
				fmt.Sprint(d2stats.Messages), fmt.Sprint(d2stats.Words), fmt.Sprint(d2stats.MaxMessageWords)},
			{"Alg1 (R=3)", fmt.Sprint(c.N()), fmt.Sprint(a1stats.Rounds),
				fmt.Sprint(a1stats.Messages), fmt.Sprint(a1stats.Words), fmt.Sprint(a1stats.MaxMessageWords)},
			{"full gather (footnote 2)", fmt.Sprint(c.N()), fmt.Sprint(gstats.Rounds),
				fmt.Sprint(gstats.Messages), fmt.Sprint(gstats.Words), fmt.Sprint(gstats.MaxMessageWords)},
		}, nil
	}})
	return s
}
