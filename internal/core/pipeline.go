package core

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// This file is the staged CSR pipeline behind Alg1, the one Algorithm 1
// driver. It twin-reduces the input CSR and runs every subsequent stage —
// cut enumeration, partitioning, per-component solving — over the flat
// CSR view with reusable arena scratch, fanning the Cuts vertex loop and
// the independent component solves out over a bounded set of workers
// (graph.ParallelFor). Stage boundaries are explicit so each one records
// wall time, allocations, and a size statistic into
// Alg1Result.StageStats.

// StageStat is one pipeline stage's diagnostics. The JSON form (used by
// the mdsd service and any result archive) carries Wall as integer
// nanoseconds under "wall_ns".
type StageStat struct {
	// Name is the stage name (TwinReduce, Cuts, Partition, ComponentSolve,
	// Stitch).
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

// TotalWall returns the summed wall time of all stages.
func (ss StageStats) TotalWall() time.Duration {
	var total time.Duration
	for _, s := range ss {
		total += s.Wall
	}
	return total
}

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

// PipelineOptions tunes the staged solver.
type PipelineOptions struct {
	// Workers bounds the fan-out of the Cuts vertex loop and of
	// ComponentSolve; <= 0 means GOMAXPROCS. The result is identical for
	// every worker count.
	Workers int
	// Hooks receives stage/component span callbacks; nil (the default)
	// disables tracing at zero cost. Hooks never change the result.
	Hooks TraceHooks
}

// Alg1 runs the centralized Algorithm 1 (Theorem 4.1) on g with the
// given radii:
//
//  1. reduce true twins,
//  2. take every vertex of an R1-local minimal 1-cut,
//  3. take every R2-interesting vertex of an R2-local minimal 2-cut,
//  4. per component of Ĝ - (X ∪ I ∪ U), brute-force a minimum set
//     dominating the still-undominated vertices.
//
// The result is always a dominating set of g; the 50-approximation
// guarantee of the paper applies for the PaperParams radii on
// K_{2,t}-minor-free inputs. Alg1 executes as a staged CSR pipeline with
// default options; see Alg1CSR to bound the component-solve fan-out.
func Alg1(g *graph.Graph, p Params) (*Alg1Result, error) {
	return Alg1Pipeline(g, p, PipelineOptions{})
}

// allocMetric is the runtime/metrics counter backing StageStat.Allocs;
// reading it does not stop the world.
const allocMetric = "/gc/heap/allocs:objects"

// runStage times fn, recording its wall clock, allocation delta, and
// returned size statistic under the given stage name. hooks (nil = off)
// observes the stage's span boundaries.
func (res *Alg1Result) runStage(hooks TraceHooks, name, unit string, sample []metrics.Sample, fn func() int) {
	var endSpan func(StageStat)
	if hooks != nil {
		endSpan = hooks.StageStart(name)
	}
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
	res.StageStats = append(res.StageStats, stat)
	if endSpan != nil {
		endSpan(stat)
	}
}

// compOut is one component's ComponentSolve result, indexed by component so
// assembly order (and therefore the output) is independent of scheduling.
type compOut struct {
	chosen   []int // picked vertices, in reduced-graph labels
	diam     int   // component subgraph diameter
	solved   bool  // false when the component had no undominated vertex
	fallback bool  // solved greedily: over MaxBruteComponent, or out of BruteNodeBudget
	err      error
}

// Alg1Pipeline is Alg1CSR on g's frozen view. It is the only driver that
// freezes its input: Graph.Freeze caches the CSR in g, so Alg1Pipeline
// must not run concurrently with another Freeze or a mutation of g.
func Alg1Pipeline(g *graph.Graph, p Params, opt PipelineOptions) (*Alg1Result, error) {
	return Alg1CSR(g.Freeze(), p, opt)
}

// Alg1CSR runs Algorithm 1 as the staged CSR pipeline
// TwinReduce → Cuts → Partition → ComponentSolve → Stitch on a frozen
// graph, with the Cuts vertex loop and the component solves fanned out
// over opt.Workers goroutines. The result is deterministic: the same
// field for field at every worker count. in is only read, never frozen
// or written, so it may be a read-only mmap of a csrbin file, and callers
// that parse straight to a CSR (graphio.ParseCSR) need no *graph.Graph at
// all. Only residual components are ever copied out of the reduced CSR,
// at most one per worker at a time.
func Alg1CSR(in *graph.CSR, p Params, opt PipelineOptions) (*Alg1Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if in.N() == 0 {
		return &Alg1Result{}, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hooks := opt.Hooks

	res := &Alg1Result{}
	sample := make([]metrics.Sample, 1)
	sample[0].Name = allocMetric

	// TwinReduce: collapse true-twin classes to representatives and freeze
	// the reduced graph; every later stage reads only the CSR view.
	var csr *graph.CSR
	var active []int
	res.runStage(hooks, "TwinReduce", "active vertices", sample, func() int {
		csr, active = graph.TwinReduceCSR(in)
		return len(active)
	})
	res.Active = append([]int(nil), active...)

	arena := graph.NewArena()

	// Cuts: steps 2 and 3 on the reduced graph, each vertex loop split
	// across the workers.
	var xLocal, iLocal []int
	res.runStage(hooks, "Cuts", "cut vertices", sample, func() int {
		xLocal, iLocal = cuts.LocalCutsWorkers(csr, p.R1, p.R2, workers, arena)
		return len(xLocal) + len(iLocal)
	})

	// Partition: the undominated set W, the saturated set U, and the
	// residual components of Ĝ - (X ∪ I ∪ U).
	var s1Local, uLocal []int
	var dominated []bool
	var comps [][]int32
	res.runStage(hooks, "Partition", "residual components", sample, func() int {
		s1Local = graph.SortedUnion(xLocal, iLocal)
		var rest []int32
		dominated, uLocal, rest = partitionResidual(csr, s1Local)
		comps = csr.SubsetComponents(rest, arena)
		return len(comps)
	})
	res.X = mapBack(xLocal, active)
	res.I = mapBack(iLocal, active)
	res.U = mapBack(uLocal, active)

	// ComponentSolve: brute-force (or greedy, above the cap) each residual
	// component against its undominated vertices. Components are
	// independent, so they fan out over the workers; each worker owns one
	// componentSolver (its arena and scratch CSR, so at most `workers`
	// induced component copies are live at once), and results land in a
	// component-indexed slice.
	outs := make([]compOut, len(comps))
	res.runStage(hooks, "ComponentSolve", "solved components", sample, func() int {
		graph.ParallelFor(len(comps), workers, 1, func(int) func(int) {
			solver := &componentSolver{csr: csr, dominated: dominated, p: p, arena: graph.NewArena(), hooks: hooks}
			return func(i int) { outs[i] = solver.solve(i, comps[i]) }
		})
		solved := 0
		for i := range outs {
			if outs[i].solved {
				solved++
			}
		}
		return solved
	})
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("core: brute-force component: %w", outs[i].err)
		}
	}

	// Stitch: assemble the solution and diagnostics in component order.
	res.runStage(hooks, "Stitch", "solution vertices", sample, func() int {
		return stitchSolution(res, p, active, s1Local, comps, outs)
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

// stitchSolution assembles the final solution and diagnostics in component
// order, filling res.S, Components, MaxComponentDiameter, BruteFallbacks,
// and RoundsEstimate. It returns the solution size (the Stitch stage's
// item count).
func stitchSolution(res *Alg1Result, p Params, active, s1Local []int, comps [][]int32, outs []compOut) int {
	sol := append([]int(nil), s1Local...)
	for i := range outs {
		o := &outs[i]
		if !o.solved {
			continue
		}
		res.Components = append(res.Components, mapBack32(comps[i], active))
		if o.diam > res.MaxComponentDiameter {
			res.MaxComponentDiameter = o.diam
		}
		if o.fallback {
			res.BruteFallbacks++
		}
		sol = append(sol, o.chosen...)
	}
	res.S = mapBack(graph.Dedup(sol), active)
	res.RoundsEstimate = p.GatherRadius() + 2 + res.MaxComponentDiameter + 1
	return len(res.S)
}

// componentSolver is one worker's reusable state for ComponentSolve.
type componentSolver struct {
	csr       *graph.CSR
	dominated []bool
	p         Params
	arena     *graph.Arena
	hooks     TraceHooks // nil = tracing off
	sub       graph.CSR  // scratch induced-subgraph buffers, reused per component
	target    []int      // scratch local-target buffer
}

// solve handles one residual component: collect its undominated vertices,
// build the induced CSR, measure the diameter, and pick a minimum
// dominating set for the targets (exactly up to MaxBruteComponent, greedily
// beyond it). index is the component's position in the partition, used
// only to label its trace span.
func (cs *componentSolver) solve(index int, comp []int32) compOut {
	if cs.hooks != nil {
		end := cs.hooks.ComponentStart(index, len(comp))
		out := cs.solveBody(comp)
		end(len(out.chosen), out.fallback)
		return out
	}
	return cs.solveBody(comp)
}

// solveBody is the hook-free body of solve.
func (cs *componentSolver) solveBody(comp []int32) compOut {
	// comp is sorted, so local index i corresponds to vertex comp[i] and
	// the monotone relabeling matches graph.Induced's canonical one.
	target := cs.target[:0]
	for i, v := range comp {
		if !cs.dominated[v] {
			target = append(target, i)
		}
	}
	cs.target = target
	if len(target) == 0 {
		return compOut{}
	}
	cs.csr.InducedInto(&cs.sub, comp, cs.arena)
	out := compOut{solved: true, diam: cs.sub.Diameter(cs.arena)}
	var chosen []int
	if len(comp) <= cs.p.MaxBruteComponent {
		var err error
		chosen, err = mds.ExactBDominatingCSROpt(&cs.sub, target, mds.ExactOptions{MaxNodes: BruteNodeBudget})
		if err != nil {
			// Budget exhausted (the only reachable error here): greedy
			// fallback. Node counts are input-determined, so the same
			// components fall back on every run and in Alg1Process.
			out.fallback = true
			chosen = mds.GreedyBDominatingCSR(&cs.sub, target)
		}
	} else {
		out.fallback = true
		chosen = mds.GreedyBDominatingCSR(&cs.sub, target)
	}
	out.chosen = make([]int, len(chosen))
	for i, v := range chosen {
		out.chosen[i] = int(comp[v])
	}
	return out
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

// mapBack32 converts reduced-graph indices to sorted original labels.
func mapBack32(local []int32, active []int) []int {
	out := make([]int, 0, len(local))
	for _, v := range local {
		out = append(out, active[v])
	}
	sort.Ints(out)
	return out
}
