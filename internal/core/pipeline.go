package core

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// This file is the staged CSR pipeline behind Alg1CSR, the one Algorithm 1
// driver, and behind MVCAlg1, its vertex-cover variant. Alg1CSR
// twin-reduces the input CSR; both then run every subsequent stage — cut
// enumeration, partitioning, per-component solving — over the flat CSR
// view with reusable arena scratch, fanning the Cuts vertex loop and the
// independent component solves out over a bounded set of workers
// (graph.ParallelFor).
// The two problems share the cut kernel (package cuts), the stage runner
// and the component fan-out; each supplies its residual rule and its
// component solver. Stage boundaries are explicit so each one records
// wall time, allocations, and a size statistic into the result's
// StageStats.

// StageStat is one pipeline stage's diagnostics. The JSON form (used by
// the mdsd service and any result archive) carries Wall as integer
// nanoseconds under "wall_ns".
type StageStat struct {
	// Name is the stage name (TwinReduce, Cuts, Partition, ComponentSolve,
	// Stitch; MVCAlg1 has no TwinReduce).
	Name string `json:"name"`
	// Wall is the stage's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
	// Allocs is the number of heap objects allocated while the stage ran.
	// The counter is process-wide (concurrent activity outside the
	// pipeline inflates it) and approximate: the runtime aggregates
	// per-core allocation counts lazily, so small allocations may be
	// attributed to a later stage.
	Allocs uint64 `json:"allocs"`
	// Items is the stage's size statistic, counted in Unit.
	Items int `json:"items"`
	// Unit names what Items counts (e.g. "active vertices", "components").
	Unit string `json:"unit"`
}

// StageStats is the per-stage diagnostic trail of one pipeline run.
type StageStats []StageStat

// Render formats the stage table for terminal output.
func (ss StageStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %-26s %12s %12s\n", "stage", "items", "wall", "allocs")
	var wall time.Duration
	var allocs uint64
	for _, s := range ss {
		fmt.Fprintf(&b, "%-15s %-26s %12s %12d\n",
			s.Name, fmt.Sprintf("%d %s", s.Items, s.Unit), s.Wall.Round(time.Microsecond), s.Allocs)
		wall += s.Wall
		allocs += s.Allocs
	}
	fmt.Fprintf(&b, "%-15s %-26s %12s %12d\n", "total", "", wall.Round(time.Microsecond), allocs)
	return b.String()
}

// PipelineOptions tunes the staged solvers (Alg1Pipeline, Alg1CSR and
// MVCAlg1).
type PipelineOptions struct {
	// Workers bounds the fan-out of the Cuts vertex loop and of
	// ComponentSolve; <= 0 means GOMAXPROCS. The result is identical for
	// every worker count.
	Workers int
	// Hooks receives stage/component span callbacks; nil (the default)
	// disables tracing at zero cost. Hooks never change the result.
	Hooks TraceHooks
}

// workers returns the fan-out width: Workers, or GOMAXPROCS when unset.
func (o PipelineOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// allocMetric is the runtime/metrics counter backing StageStat.Allocs;
// reading it does not stop the world.
const allocMetric = "/gc/heap/allocs:objects"

// runStage times fn, appending its wall clock, allocation delta, and
// returned size statistic to ss under the given stage name. hooks (nil =
// off) observes the stage's span boundaries.
func (ss *StageStats) runStage(hooks TraceHooks, name, unit string, fn func() int) {
	var endSpan func(StageStat)
	if hooks != nil {
		endSpan = hooks.StageStart(name)
	}
	sample := []metrics.Sample{{Name: allocMetric}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	start := time.Now()
	items := fn()
	wall := time.Since(start)
	metrics.Read(sample)
	stat := StageStat{
		Name:   name,
		Wall:   wall,
		Allocs: sample[0].Value.Uint64() - before,
		Items:  items,
		Unit:   unit,
	}
	*ss = append(*ss, stat)
	if endSpan != nil {
		endSpan(stat)
	}
}

// Alg1Pipeline is Alg1CSR on g.Freeze(), for the callers that hold a
// *graph.Graph: the perfbench module, which times a graph read from a
// file through it, and core's tests. Every other caller freezes its graph
// once and calls Alg1CSR.
func Alg1Pipeline(g *graph.Graph, p Params, opt PipelineOptions) (*Alg1Result, error) {
	return Alg1CSR(g.Freeze(), p, opt)
}

// Alg1CSR runs the centralized Algorithm 1 (Theorem 4.1) on in with the
// given radii:
//
//  1. reduce true twins,
//  2. take every vertex of an R1-local minimal 1-cut,
//  3. take every R2-interesting vertex of an R2-local minimal 2-cut,
//  4. per component of Ĝ - (X ∪ I ∪ U), brute-force a minimum set
//     dominating the still-undominated vertices.
//
// The result is always a dominating set of in; the 50-approximation
// guarantee of the paper applies for the PaperParams radii on
// K_{2,t}-minor-free inputs. It runs as the staged CSR pipeline
// TwinReduce → Cuts → Partition → ComponentSolve → Stitch, with the Cuts
// vertex loop and the component solves fanned out over opt.Workers
// goroutines. The result is deterministic: the same field for field at
// every worker count. in is only read, never written, so it may be a
// read-only mmap of a csrbin file, and callers that parse straight to a
// CSR (graphio.ParseCSR) need no *graph.Graph at all. Only residual components are ever copied out of the reduced CSR,
// at most one per worker at a time.
func Alg1CSR(in *graph.CSR, p Params, opt PipelineOptions) (*Alg1Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if in.N() == 0 {
		return &Alg1Result{}, nil
	}
	workers, hooks := opt.workers(), opt.Hooks
	res := &Alg1Result{}

	// TwinReduce: collapse true-twin classes to representatives and freeze
	// the reduced graph; every later stage reads only the CSR view.
	var csr *graph.CSR
	var active []int
	res.StageStats.runStage(hooks, "TwinReduce", "active vertices", func() int {
		csr, active = graph.TwinReduceCSR(in)
		return len(active)
	})
	res.Active = append([]int(nil), active...)

	arena := graph.NewArena()

	// Cuts: steps 2 and 3 on the reduced graph, each vertex loop split
	// across the workers.
	var xLocal, iLocal []int
	res.StageStats.runStage(hooks, "Cuts", "cut vertices", func() int {
		xLocal, iLocal = cuts.LocalCutsWorkers(csr, p.R1, p.R2, workers, arena)
		return len(xLocal) + len(iLocal)
	})

	// Partition: the undominated set W, the saturated set U, and the
	// residual components of Ĝ - (X ∪ I ∪ U).
	var s1Local, uLocal []int
	var dominated []bool
	var comps [][]int32
	res.StageStats.runStage(hooks, "Partition", "residual components", func() int {
		s1Local = graph.SortedUnion(xLocal, iLocal)
		var rest []int32
		dominated, uLocal, rest = partitionResidual(csr, s1Local)
		comps = csr.SubsetComponents(rest, arena)
		return len(comps)
	})
	res.X = mapBack(xLocal, active)
	res.I = mapBack(iLocal, active)
	res.U = mapBack(uLocal, active)

	// ComponentSolve: brute-force (or greedy, above the cap or out of
	// budget) a minimum set dominating each residual component's
	// undominated vertices. Every residual component has one: a residual
	// vertex is undominated or has an undominated neighbor, which is
	// outside S1 ∪ U and so in the same component.
	var outs []compOut
	res.StageStats.runStage(hooks, "ComponentSolve", "solved components", func() int {
		outs = solveComponents(csr, comps, workers, hooks, func(sub *graph.CSR, comp []int32) ([]int, bool) {
			target := make([]int, 0, len(comp))
			for i, v := range comp {
				if !dominated[v] {
					target = append(target, i)
				}
			}
			return solveMDSComponent(sub, target, p)
		})
		return len(outs)
	})

	// Stitch: assemble the solution and diagnostics in component order.
	res.StageStats.runStage(hooks, "Stitch", "solution vertices", func() int {
		var sol []int
		sol, res.Components, res.MaxComponentDiameter, res.BruteFallbacks = stitch(s1Local, comps, outs,
			func(comp []int32) []int { return mapBack(ints(comp), active) })
		res.S = mapBack(sol, active)
		res.RoundsEstimate = p.GatherRadius() + 2 + res.MaxComponentDiameter + 1
		return len(res.S)
	})
	return res, nil
}

// partitionResidual computes the Partition stage's split of the reduced
// graph: the domination bitmap induced by S1 = X ∪ I, the saturated set U
// (dominated vertices whose whole closed neighborhood is dominated), and
// the residual vertex set of Ĝ - (S1 ∪ U).
func partitionResidual(csr *graph.CSR, s1Local []int) (dominated []bool, uLocal []int, rest []int32) {
	n := csr.N()
	dominated = make([]bool, n)
	inS1 := make([]bool, n)
	for _, v := range s1Local {
		inS1[v] = true
		dominated[v] = true
		for _, u := range csr.Row(v) {
			dominated[u] = true
		}
	}
	rest = make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if inS1[v] {
			continue
		}
		if dominated[v] && allDominatedCSR(csr, v, dominated) {
			uLocal = append(uLocal, v)
		} else {
			rest = append(rest, int32(v))
		}
	}
	return dominated, uLocal, rest
}

// solveMDSComponent is Algorithm 1's component-solve dispatch, run by
// Alg1CSR and by the LOCAL process alike: a minimum set of sub dominating
// target, exact when sub has at most p.MaxBruteComponent vertices and the
// search stays within BruteNodeBudget, else the greedy, which fallback
// reports. Node counts are input-determined, so the same components fall
// back on every run.
func solveMDSComponent(sub *graph.CSR, target []int, p Params) (chosen []int, fallback bool) {
	if sub.N() <= p.MaxBruteComponent {
		if chosen, err := mds.ExactBDominating(sub, target, mds.ExactOptions{MaxNodes: BruteNodeBudget}); err == nil {
			return chosen, false
		}
	}
	return mds.GreedyBDominatingCSR(sub, target), true
}

// compOut is one component's ComponentSolve result, indexed by component so
// assembly order (and therefore the output) is independent of scheduling.
type compOut struct {
	chosen   []int // picked vertices, in the solved CSR's labels
	diam     int   // component subgraph diameter
	fallback bool  // solved approximately: over MaxBruteComponent, or out of BruteNodeBudget
}

// componentSolver solves one residual component: sub is its induced
// subgraph, whose vertex i is comp[i]. It returns the picks in sub's
// labels and whether it fell back from the exact solve. It runs on every
// worker at once, so it must not write shared state.
type componentSolver func(sub *graph.CSR, comp []int32) (chosen []int, fallback bool)

// solveComponents is the ComponentSolve stage of both drivers. Components
// are independent, so they fan out over the workers; each worker owns an
// arena and a scratch CSR for its current component's induced subgraph
// (so at most `workers` component copies are live at once), and results
// land in a component-indexed slice.
func solveComponents(csr *graph.CSR, comps [][]int32, workers int, hooks TraceHooks, solve componentSolver) []compOut {
	outs := make([]compOut, len(comps))
	graph.ParallelFor(len(comps), workers, 1, func(int) func(int) {
		arena := graph.NewArena()
		var sub graph.CSR
		return func(i int) {
			comp := comps[i]
			var end func(int, bool)
			if hooks != nil {
				end = hooks.ComponentStart(i, len(comp))
			}
			// comp is sorted, so sub's vertex i is comp[i].
			csr.InducedInto(&sub, comp, arena)
			diam, _, _ := sub.Diameter(arena, 0)
			o := compOut{diam: diam}
			var chosen []int
			chosen, o.fallback = solve(&sub, comp)
			o.chosen = make([]int, len(chosen))
			for j, v := range chosen {
				o.chosen[j] = int(comp[v])
			}
			outs[i] = o
			if end != nil {
				end(len(o.chosen), o.fallback)
			}
		}
	})
	return outs
}

// stitch assembles, in component order, the solution — s1 plus every
// component's picks, deduplicated, in the solved CSR's labels — and the
// component diagnostics: the components relabeled by label, their largest
// diameter, and the number of fallback solves.
func stitch(s1 []int, comps [][]int32, outs []compOut, label func([]int32) []int) (sol []int, components [][]int, maxDiam, fallbacks int) {
	sol = append([]int(nil), s1...)
	for i := range outs {
		components = append(components, label(comps[i]))
		maxDiam = max(maxDiam, outs[i].diam)
		if outs[i].fallback {
			fallbacks++
		}
		sol = append(sol, outs[i].chosen...)
	}
	return graph.Dedup(sol), components, maxDiam, fallbacks
}

// allDominatedCSR reports whether every vertex of N[v] is dominated,
// reading the CSR row directly.
func allDominatedCSR(c *graph.CSR, v int, dominated []bool) bool {
	if !dominated[v] {
		return false
	}
	for _, u := range c.Row(v) {
		if !dominated[u] {
			return false
		}
	}
	return true
}

// ints widens a CSR vertex list.
func ints(vs []int32) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
