// Command mdsbench regenerates the paper's evaluation: Table 1, the vertex
// cover variants, and the per-lemma measurements (Lemmas 3.2, 3.3, 4.2,
// 5.17/5.18, Propositions 3.1/5.7/5.8, and the §4 cycle discussion).
//
// Usage:
//
//	mdsbench [-seed N] [-n N] [-process-n N] [-parallel W]
//	         [-replicates R] [-timeout D]
//	         [-only table1|mvc|lemmas|spqr|prop31|cycle|ablation]
//	         [-json]
//
// -timeout bounds each task (e.g. -timeout 30s): a pathological row fails
// the sweep with a "timed out" error naming the cell instead of stalling
// it forever.
//
// Per-stage wall times of the Algorithm 1 pipeline are measurements, not
// table cells: mdsrun -alg alg1 -stages prints them for one input.
//
// Experiments are decomposed into independent tasks (internal/experiments
// declares them; internal/runner executes them on a bounded worker pool).
// Every (experiment, row, replicate) cell derives its own seed from the
// root seed, so the tables are byte-identical for a fixed root seed
// regardless of -parallel, and -replicates R aggregates R independently
// seeded runs per row as "mean ±stddev [min..max]".
//
// With -json, results are emitted as machine-readable JSON (per group:
// name, wall-clock ns, allocation count; per table row: the raw cells plus
// parsed ratio/rounds where the table reports them) for BENCH_*.json
// tracking across PRs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"localmds/internal/experiments"
	"localmds/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mdsbench: %v\n", err)
		os.Exit(1)
	}
}

// group is one experiment family: a name and the specs it renders.
type group struct {
	name  string
	specs []experiments.Spec
}

// rowJSON is one table row with metrics parsed out where available.
type rowJSON struct {
	Name   string   `json:"name"`
	Cells  []string `json:"cells"`
	Ratio  *float64 `json:"ratio,omitempty"`
	Rounds *float64 `json:"rounds,omitempty"`
}

// tableJSON is a rendered table in structured form.
type tableJSON struct {
	Title  string    `json:"title"`
	Header []string  `json:"header"`
	Rows   []rowJSON `json:"rows"`
}

// groupJSON is the machine-readable result of one experiment group.
type groupJSON struct {
	Name     string      `json:"name"`
	NsOp     int64       `json:"ns_op"`
	AllocsOp uint64      `json:"allocs_op"`
	Tables   []tableJSON `json:"tables"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdsbench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "root of the per-task seed derivation tree")
	n := fs.Int("n", 120, "instance size for ratio measurements")
	processN := fs.Int("process-n", 48, "instance size for simulator round measurements")
	parallel := fs.Int("parallel", 0, "experiment worker pool size (0: all cores)")
	replicates := fs.Int("replicates", 1, "independently seeded runs per task, aggregated as mean ±stddev [min..max]")
	timeout := fs.Duration("timeout", 0, "per-task timeout, e.g. 30s (0: unbounded)")
	only := fs.String("only", "", "run a single experiment group (table1|mvc|lemmas|spqr|prop31|cycle|ablation)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON results")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and exits 0, as before the FlagSet refactor
		}
		return err
	}
	if *n < 8 {
		return fmt.Errorf("-n must be >= 8 (the lemma sweeps generate instances down to n/4), got %d", *n)
	}
	if *processN < 3 {
		return fmt.Errorf("-process-n must be >= 3, got %d", *processN)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
	}
	if *replicates < 1 {
		return fmt.Errorf("-replicates must be >= 1, got %d", *replicates)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", *timeout)
	}

	cfg := experiments.Table1Config{N: *n, ProcessN: *processN}
	groups := []group{
		{"table1", []experiments.Spec{experiments.Table1Spec(cfg)}},
		{"mvc", []experiments.Spec{experiments.MVCTableSpec(cfg)}},
		{"lemmas", []experiments.Spec{
			experiments.Lemma32Spec([]int{*n / 2, *n}, 3),
			experiments.Lemma33Spec([]int{*n / 2, *n}, 3),
			experiments.Lemma42Spec([]int{*n, 2 * *n, 4 * *n}),
			experiments.Lemma518Spec([]int{*n / 2, *n}, 5),
		}},
		{"cycle", []experiments.Spec{experiments.CycleLocalCutsSpec([]int{30, 100, 300, 1000}, 3)}},
		{"spqr", []experiments.Spec{experiments.SPQRStatsSpec([]int{16, 24, 32})}},
		{"prop31", []experiments.Spec{experiments.Proposition31Spec(cfg)}},
		{"ablation", []experiments.Spec{
			experiments.RadiusAblationSpec(*n, []int{2, 3, 4, 5, 6}),
			experiments.RoundsVsTSpec(*processN, []int{3, 4, 5, 6}),
			experiments.ScalingSpec([]int{*n, 2 * *n, 4 * *n, 8 * *n}),
			experiments.MessageFootprintSpec(*processN),
			experiments.DensityTableSpec(*n),
			experiments.BaselinesSpec([]int{*n, 2 * *n, 4 * *n}),
		}},
	}
	selected := groups[:0]
	for _, grp := range groups {
		if *only == "" || *only == grp.name {
			selected = append(selected, grp)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment group %q", *only)
	}

	r := runner.New(runner.Options{Workers: *parallel, Replicates: *replicates, RootSeed: *seed, TaskTimeout: *timeout})

	if !*jsonOut {
		// Text mode needs no per-group timing, so every group's specs go
		// into one pool submission: no barrier between groups, and the
		// wall-clock floor is the single longest task, not the sum of
		// per-group stragglers.
		var specs []experiments.Spec
		for _, grp := range selected {
			specs = append(specs, grp.specs...)
		}
		tables, err := r.Run(specs)
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t.Render())
		}
		return nil
	}

	results := []groupJSON{}
	for _, grp := range selected {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		tables, err := r.Run(grp.specs)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("%s: %w", grp.name, err)
		}
		gj := groupJSON{
			Name:     grp.name,
			NsOp:     elapsed.Nanoseconds(),
			AllocsOp: after.Mallocs - before.Mallocs,
		}
		for _, t := range tables {
			gj.Tables = append(gj.Tables, structureTable(t))
		}
		results = append(results, gj)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"results": results})
}

// structureTable converts a rendered table into its JSON form, parsing
// ratio and round metrics out of the columns that carry them.
func structureTable(t *experiments.Table) tableJSON {
	tj := tableJSON{Title: t.Title, Header: t.Header}
	ratioCol, roundsCol := -1, -1
	for i, h := range t.Header {
		lh := strings.ToLower(h)
		switch {
		case strings.Contains(lh, "measured ratio") || lh == "ratio":
			ratioCol = i
		case strings.Contains(lh, "measured rounds") || lh == "rounds":
			roundsCol = i
		}
	}
	for _, row := range t.Rows {
		rj := rowJSON{Cells: row}
		if len(row) > 0 {
			rj.Name = row[0]
		}
		if ratioCol >= 0 && ratioCol < len(row) {
			rj.Ratio = parseLeadingFloat(row[ratioCol])
		}
		if roundsCol >= 0 && roundsCol < len(row) {
			rj.Rounds = parseLeadingFloat(row[roundsCol])
		}
		tj.Rows = append(tj.Rows, rj)
	}
	return tj
}

// parseLeadingFloat adapts experiments.LeadingFloat to the JSON schema's
// optional-number convention (nil when the cell has no number).
func parseLeadingFloat(cell string) *float64 {
	f, ok := experiments.LeadingFloat(cell)
	if !ok {
		return nil
	}
	return &f
}
