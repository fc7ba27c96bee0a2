package core

import (
	"fmt"
	"runtime/metrics"
	"sync"

	"localmds/internal/cuts"
	"localmds/internal/graph"
)

// This file is the partition-first driver for huge inputs. The huge-graph
// ingestion path produces a frozen (possibly mmap-backed, read-only)
// graph.CSR directly and schedules on a caller-owned worker pool, where
// Alg1CSR fans out over its own goroutines. Alg1Huge runs every stage on the
// shared CSR: the same TwinReduceCSR, CSR-native cut enumeration and
// partitioning as the pipeline, and a component fan-out that never
// holds more than `workers` induced component copies at once — each worker
// owns one reusable componentSolver whose buffers grow to the largest
// component it sees and are recycled across all the components it solves.

// Submitter is the slice of runner.Pool that Alg1Huge schedules on.
// (core cannot import runner directly: runner drives experiments, which
// import core.) Submit must run the function on some goroutine and may
// block until a worker frees up; Workers reports the concurrency bound.
type Submitter interface {
	Submit(fn func())
	Workers() int
}

// HugeOptions tunes Alg1Huge.
type HugeOptions struct {
	// Pool fans the per-component solves out, and its Workers() count
	// bounds the Cuts vertex-loop fan-out; nil runs both in the calling
	// goroutine. The result is identical either way.
	Pool Submitter
	// Hooks receives stage/component span callbacks; nil (the default)
	// disables tracing at zero cost. Hooks never change the result.
	Hooks TraceHooks
}

// Alg1Huge runs Algorithm 1 on a frozen CSR view, partition-first: the
// shared input CSR feeds TwinReduce, Cuts, and Partition directly, and
// only the residual components — each a vanishing fraction of a huge
// near-planar instance — are ever copied out, at most one per pool worker
// at a time. The input CSR is never mutated (it may be an mmap of a
// csrbin file), and the result equals Alg1Pipeline's on the same graph
// field for field, at every worker count.
func Alg1Huge(csr *graph.CSR, p Params, opt HugeOptions) (*Alg1Result, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if csr.N() == 0 {
		return &Alg1Result{}, nil
	}
	hooks := opt.Hooks

	res := &Alg1Result{}
	sample := make([]metrics.Sample, 1)
	sample[0].Name = allocMetric

	// TwinReduce: collapse true-twin classes on the CSR itself. When the
	// input has no twins this is a scan, not a copy.
	var rcsr *graph.CSR
	var active []int
	res.runStage(hooks, "TwinReduce", "active vertices", sample, func() int {
		rcsr, active = graph.TwinReduceCSR(csr)
		return len(active)
	})
	res.Active = append([]int(nil), active...)

	arena := graph.NewArena()
	workers := 1
	if opt.Pool != nil {
		workers = opt.Pool.Workers()
	}

	// Cuts: steps 2 and 3 on the reduced CSR, each vertex loop split
	// across the pool's worker count.
	var xLocal, iLocal []int
	res.runStage(hooks, "Cuts", "cut vertices", sample, func() int {
		xLocal = cuts.LocalOneCutsWorkers(rcsr, p.R1, workers, arena)
		iLocal = cuts.LocallyInterestingVerticesWorkers(rcsr, p.R2, workers, arena)
		return len(xLocal) + len(iLocal)
	})

	// Partition: identical to the pipeline's stage, via the shared helper.
	var s1Local, uLocal []int
	var dominated []bool
	var comps [][]int32
	res.runStage(hooks, "Partition", "residual components", sample, func() int {
		s1Local = graph.SortedUnion(xLocal, iLocal)
		var rest []int32
		dominated, uLocal, rest = partitionResidual(rcsr, s1Local)
		comps = rcsr.SubsetComponents(rest, arena)
		return len(comps)
	})
	res.X = mapBack(xLocal, active)
	res.I = mapBack(iLocal, active)
	res.U = mapBack(uLocal, active)

	// ComponentSolve: fan the independent components out over the pool.
	// A free list of exactly `workers` componentSolvers bounds the live
	// induced-subgraph copies: a task must take a solver before it can
	// copy its component, and gives it back (buffers intact, ready for
	// reuse) when done.
	outs := make([]compOut, len(comps))
	res.runStage(hooks, "ComponentSolve", "solved components", sample, func() int {
		w := min(workers, len(comps))
		if w <= 1 {
			solver := componentSolver{csr: rcsr, dominated: dominated, p: p, arena: graph.NewArena(), hooks: hooks}
			for i := range comps {
				outs[i] = solver.solve(i, comps[i])
			}
		} else {
			solvers := make(chan *componentSolver, w)
			for k := 0; k < w; k++ {
				solvers <- &componentSolver{csr: rcsr, dominated: dominated, p: p, arena: graph.NewArena(), hooks: hooks}
			}
			var wg sync.WaitGroup
			for i := range comps {
				wg.Add(1)
				opt.Pool.Submit(func() {
					defer wg.Done()
					s := <-solvers
					outs[i] = s.solve(i, comps[i])
					solvers <- s
				})
			}
			wg.Wait()
		}
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

	// Stitch: identical to the pipeline's stage, via the shared helper.
	res.runStage(hooks, "Stitch", "solution vertices", sample, func() int {
		return stitchSolution(res, p, active, s1Local, comps, outs)
	})
	return res, nil
}
