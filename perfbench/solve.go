package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"localmds/internal/core"
	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/graphio"
)

// solveNominalPerSecond sizes the solve operation list (see opCount).
const solveNominalPerSecond = 90.0

// setupReps is how many times a run sets its workload up; the last
// set-up serves the timed phase.
const setupReps = 5

// runSolve is the offline path of `mdsrun -in f -alg alg1`: one caller
// reads an input file (format auto-detected) and runs Algorithm 1 on it,
// for every operation of the fixed list.
func runSolve(cfg *config) (*report, error) {
	rep := &report{manifest: map[string]any{}}
	var ins []*input
	setups := make([]float64, setupReps)
	steals := make([]int64, setupReps)
	for r := range setups {
		s0 := stealTicks()
		t0 := time.Now()
		var err error
		if ins, err = makeSolveInputs(cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		runtime.GC()
		setups[r] = time.Since(t0).Seconds()
		steals[r] = stealTicks() - s0
	}
	// The files are written once, outside the timed set-up: no program
	// code runs while they are written, and creating them on the shared
	// disk took anywhere from 15 to 270 ms.
	dir := filepath.Join(cfg.workDir, "solve")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(ins))
	for k, in := range ins {
		paths[k] = filepath.Join(dir, fmt.Sprintf("input-%d.el", k))
		if err := os.WriteFile(paths[k], in.text, 0o644); err != nil {
			return nil, err
		}
	}
	setupMetric(rep, setups, steals)

	for _, in := range ins {
		in.prepare()
	}
	n := opCount(cfg, solveNominalPerSecond)
	ops := opList(cfg.seed, "solve", len(ins), max(n, digestOps))
	digest := inputDigest("solve", ins, ops)
	ops = ops[:n]
	rep.manifest["input_digest"] = digest
	rep.manifest["ops"] = n
	rep.manifest["distinct_inputs"] = len(ins)
	rep.manifest["input_vertices"] = ins[0].n

	rep.manifest["rss_peak_reset"] = settle()

	var rec *recorder
	tot := newStageTotals()
	if cfg.trace {
		rec = newRecorder()
	}
	var traced, untraced []time.Duration
	var readWall time.Duration
	var counts [5]int // active, cut, residual components, fallbacks, |S|
	solSum, lbSum := 0, 0
	// op runs and checks operation i and returns its latency.
	op := func(i int) (time.Duration, error) {
		k := ops[i]
		tracedOp := rec != nil && i%2 == 0
		var hooks *stageHooks
		opts := core.PipelineOptions{}
		t0 := time.Now()
		var readSpan int
		if tracedOp {
			hooks = &stageHooks{rec: rec, op: i, tot: tot}
			hooks.parent = rec.start("op", i, -1, 0)
			opts.Hooks = hooks
			readSpan = rec.start("graphio.ReadFile", i, hooks.parent, 0)
		}
		g, err := graphio.ReadFile(paths[k], graphio.FormatAuto)
		if tracedOp {
			readWall += rec.end(readSpan)
		}
		var res *core.Alg1Result
		if err == nil {
			res, err = core.Alg1Pipeline(g, core.PracticalParams(), opts)
		}
		d := time.Since(t0)
		if tracedOp {
			rec.end(hooks.parent)
			hooks.finish()
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if err == nil {
			err = ins[k].or.check(res.S)
		}
		if err != nil {
			return d, fmt.Errorf("input %d: %w", k, err)
		}
		solSum += len(res.S)
		lbSum += ins[k].or.lb
		counts[0] += len(res.Active)
		counts[1] += stageItems(res, "Cuts")
		counts[2] += stageItems(res, "Partition")
		counts[3] += res.BruteFallbacks
		counts[4] += len(res.S)
		return d, nil
	}
	var blocks []block
	size := blockOps(solveNominalPerSecond)
	stop := deadline(cfg)
	for lo := 0; lo < n; lo += size {
		if time.Now().After(stop) {
			rep.attempted += n - lo
			rep.failed += n - lo
			fmt.Fprintf(os.Stderr, "perfbench: solve: %v after %d of %d operations\n", errDeadline, lo, n)
			break
		}
		b := block{ops: min(size, n-lo)}
		s0, c0 := stealTicks(), cpuSeconds()
		t0 := time.Now()
		for i := lo; i < lo+b.ops; i++ {
			rep.attempted++
			d, err := op(i)
			b.lat = append(b.lat, d)
			if err != nil {
				rep.failed++
				fmt.Fprintf(os.Stderr, "perfbench: solve: op %d: %v\n", i, err)
			}
		}
		b.wall = time.Since(t0)
		b.steal, b.cpu = stealTicks()-s0, cpuSeconds()-c0
		blocks = append(blocks, b)
	}
	lat, measuredOps, wall := measured(rep, blocks)
	outcome(rep, measuredOps, wall.Seconds(), solSum, lbSum)
	latencyMetrics(rep, lat)

	pinSeed, err := checkPins(cfg, digest)
	rep.manifest["pin_checked_seed"] = pinSeed
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return rep, nil
	}

	per := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / float64(max(tot.ops, 1))
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) / float64(max(tot.ops, 1)) }
	rep.set("graphio.read_ms", "ms", per(readWall))
	rep.set("graph.twinreduce_ms", "ms", per(tot.wall["TwinReduce"]))
	rep.set("graph.twinreduce_alloc_mb", "MB", mb(tot.alloc["TwinReduce"]))
	rep.set("cuts.stage_ms", "ms", per(tot.wall["Cuts"]))
	rep.set("core.partition_ms", "ms", per(tot.wall["Partition"]))
	rep.set("mds.componentsolve_ms", "ms", per(tot.wall["ComponentSolve"]))
	rep.set("mds.component_max_ms", "ms", per(tot.compMax))
	rep.set("core.stitch_ms", "ms", per(tot.wall["Stitch"]))
	setCounts(rep, counts)
	setOverhead(rep, traced, untraced)
	if err := replayCuts(rep, rec, ins); err != nil {
		return nil, err
	}
	return rep, writeTrace(rep, rec, cfg)
}

// stageItems returns the size statistic of the named pipeline stage.
func stageItems(res *core.Alg1Result, name string) int {
	for _, s := range res.StageStats {
		if s.Name == name {
			return s.Items
		}
	}
	return 0
}

// setCounts reports the run's summed deterministic solver counts.
func setCounts(rep *report, c [5]int) {
	rep.set("graph.active_vertices", "count", float64(c[0]))
	rep.set("cuts.cut_vertices", "count", float64(c[1]))
	rep.set("core.residual_components", "count", float64(c[2]))
	rep.set("mds.brute_fallbacks", "count", float64(c[3]))
	rep.set("core.solution_vertices", "count", float64(c[4]))
}

// setOverhead reports the recorder's cost: the traced operations' median
// latency over the untraced ones' (the run alternates the two).
func setOverhead(rep *report, traced, untraced []time.Duration) {
	if len(traced) == 0 || len(untraced) == 0 {
		return
	}
	tr := append([]time.Duration(nil), traced...)
	un := append([]time.Duration(nil), untraced...)
	sortDurations(tr)
	sortDurations(un)
	rep.set("obs.trace_overhead_pct", "%", 100*(float64(percentile(tr, 0.5))/float64(percentile(un, 0.5))-1))
}

// replayCuts splits the Cuts stage: for each distinct input it times
// cuts.LocalOneCutsCSR and cuts.LocallyInterestingVerticesCSR on the
// output of graph.TwinReduceCSR, as the pipeline calls them.
func replayCuts(rep *report, rec *recorder, ins []*input) error {
	p := core.PracticalParams()
	var one, two time.Duration
	var alloc uint64
	for k, in := range ins {
		g, err := graphio.Read(bytes.NewReader(in.text), graphio.FormatEdgeList)
		if err != nil {
			return err
		}
		reduced, _ := graph.TwinReduceCSR(g.Freeze())
		arena := graph.NewArena()
		a0 := allocBytes()
		id := rec.start("cuts.LocalOneCutsCSR", -1-k, -1, 0)
		cuts.LocalOneCutsCSR(reduced, p.R1, arena)
		one += rec.end(id)
		id = rec.start("cuts.LocallyInterestingVerticesCSR", -1-k, -1, 0)
		cuts.LocallyInterestingVerticesCSR(reduced, p.R2, arena)
		two += rec.end(id)
		alloc += allocBytes() - a0
	}
	n := float64(len(ins))
	rep.set("cuts.onecuts_ms", "ms", float64(one)/float64(time.Millisecond)/n)
	rep.set("cuts.twocuts_ms", "ms", float64(two)/float64(time.Millisecond)/n)
	rep.set("cuts.alloc_mb", "MB", float64(alloc)/(1<<20)/n)
	return nil
}

// writeTrace writes the run's spans as Chrome trace JSON into the work
// directory's parent (.bench_build), which outlives the run.
func writeTrace(rep *report, rec *recorder, cfg *config) error {
	path := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	rep.manifest["chrome_trace"] = path
	rep.manifest["spans"] = len(rec.spans)
	return rec.writeChrome(path)
}
