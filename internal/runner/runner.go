// Package runner is the concurrent experiment orchestrator: it decomposes
// experiment Specs (internal/experiments) into independent tasks with
// deterministically derived per-task seeds, executes them on a bounded
// set of workers (graph.ParallelFor), replicates each task across seeds
// with mean/stddev/min/max aggregation.
//
// Output is independent of the worker count by construction: every
// (experiment, task, replicate) cell derives its own seed via
// experiments.TaskSeed, tasks share no mutable state, and tables are
// assembled in declaration order from an index-addressed result slice —
// never in completion order.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"localmds/internal/experiments"
	"localmds/internal/graph"
)

// Options configures a Runner.
type Options struct {
	// Workers bounds the concurrent tasks; <= 0 means GOMAXPROCS.
	Workers int
	// Replicates is the number of independently seeded runs per task;
	// <= 0 means 1. Replicate rows are aggregated cell-wise (see
	// aggregateCell).
	Replicates int
	// RootSeed is the root of the per-task seed derivation tree.
	RootSeed int64
	// TaskTimeout bounds each task execution (0 = unbounded): a task that
	// exceeds it fails the sweep with an ErrTimeout-wrapped error instead
	// of stalling it. The abandoned computation finishes in the
	// background; see WithTimeout.
	TaskTimeout time.Duration
}

// Runner executes experiment specs on a bounded set of workers. A Runner
// is safe for sequential reuse across Run calls; Run itself fans tasks out
// internally.
type Runner struct {
	opts Options
}

// New returns a Runner with the given options.
func New(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Replicates <= 0 {
		opts.Replicates = 1
	}
	return &Runner{opts: opts}
}

// job is one (spec, task, replicate) execution cell.
type job struct {
	spec, task, rep int
	seed            int64
}

// Run executes every task of every spec (times Replicates) on Workers
// workers and assembles one table per spec, in declaration order. The
// result is byte-identical for a fixed RootSeed regardless of Workers.
func (r *Runner) Run(specs []experiments.Spec) ([]*experiments.Table, error) {
	return r.RunContext(context.Background(), specs)
}

// RunContext is Run bounded by ctx: cancellation skips every task not yet
// started and fails the sweep with the context error. Tasks already
// running are abandoned per WithTimeout (their computation completes in
// the background, results discarded).
func (r *Runner) RunContext(ctx context.Context, specs []experiments.Spec) ([]*experiments.Table, error) {
	var jobs []job
	for si, s := range specs {
		for ti, task := range s.Tasks {
			for rep := 0; rep < r.opts.Replicates; rep++ {
				jobs = append(jobs, job{
					spec: si, task: ti, rep: rep,
					seed: experiments.TaskSeed(r.opts.RootSeed, s.Name, task.Row, rep),
				})
			}
		}
	}

	results := make([][][]string, len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool // once set, remaining jobs are skipped: the sweep is doomed
	graph.ParallelFor(len(jobs), r.opts.Workers, 1, func(int) func(int) {
		return func(idx int) {
			if failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[idx] = err
				failed.Store(true)
				return
			}
			j := jobs[idx]
			spec := specs[j.spec]
			task := spec.Tasks[j.task]
			rows, err := WithTimeout(ctx, r.opts.TaskTimeout, func() ([][]string, error) {
				return task.Run(j.seed)
			})
			if err != nil {
				errs[idx] = fmt.Errorf("%s/%s (replicate %d, seed %d): %w",
					spec.Name, task.Row, j.rep, j.seed, err)
				failed.Store(true)
				return
			}
			results[idx] = rows
		}
	})

	// Report the first error in job order, not completion order. (With
	// several near-simultaneous failures the abort flag may let different
	// subsets of them materialize across runs; each run still reports the
	// earliest of the errors it saw.)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	tables := make([]*experiments.Table, len(specs))
	idx := 0
	for si, s := range specs {
		t := &experiments.Table{Title: s.Title, Header: s.Header}
		for ti := range s.Tasks {
			reps := make([][][]string, r.opts.Replicates)
			for rep := 0; rep < r.opts.Replicates; rep++ {
				reps[rep] = results[idx]
				idx++
			}
			rows, err := aggregateRows(reps)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", s.Name, s.Tasks[ti].Row, err)
			}
			t.Rows = append(t.Rows, rows...)
		}
		tables[si] = t
	}
	return tables, nil
}
