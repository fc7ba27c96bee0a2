// Command mdsingest generates and benchmarks huge-graph instances for the
// ingestion pipeline (text parse → csrbin → mmap → Alg1CSR solve). Every
// invocation performs one mode and emits a single JSON report on stdout,
// so a shell script can compose runs into a BENCH_ingest.json without
// parsing human-readable logs. It does not convert: the one text→csrbin
// converter is graphgen -in huge.edges -oformat csrbin -o huge.csrbin.
//
// Usage:
//
//	mdsingest -mode gen -edges E -o huge.edges
//	mdsingest -mode parse     -in huge.edges [-workers W] [-fingerprint]
//	mdsingest -mode load      -in huge.csrbin [-fingerprint]
//	mdsingest -mode solve     -in huge.csrbin [-workers W] [-r1 R] [-r2 R]
//
// Modes:
//
//   - gen: write a deterministic near-planar edge list — disjoint 12x12
//     grid components replicated until the target edge count — without
//     ever holding the graph in memory.
//   - parse: the chunked text parser (graphio.ParseCSRFile) at W workers;
//     -workers 1 is the single-core baseline.
//   - load: OpenCSRBin — mmap on supported platforms, so the wall time is
//     independent of the graph size; the data is not verified.
//   - solve: graphio.LoadCSR (mmap plus one verifying pass over the data
//     for csrbin, parallel parse for text), the loader mdsrun -in uses
//     too, then core.Alg1CSR on the loaded CSR, validated against it.
//
// wall_seconds always times the mode's headline operation only;
// -fingerprint hashes the loaded CSR *outside* the timed window (it
// touches every page, which would otherwise hide the point of mmap).
// peak_rss_bytes is VmHWM from /proc/self/status (0 where unavailable).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"localmds/internal/core"
	"localmds/internal/graph"
	"localmds/internal/graphio"
	"localmds/internal/mds"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mdsingest: %v\n", err)
		os.Exit(1)
	}
}

// report is the one-object-per-run JSON contract consumed by
// scripts/bench_ingest.sh.
type report struct {
	Mode         string  `json:"mode"`
	File         string  `json:"file,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	N            int     `json:"n,omitempty"`
	M            int     `json:"m,omitempty"`
	WallSeconds  float64 `json:"wall_seconds"`
	Mapped       *bool   `json:"mapped,omitempty"`
	Fingerprint  string  `json:"fingerprint,omitempty"`
	SolveSeconds float64 `json:"solve_seconds,omitempty"`
	SolutionSize int     `json:"solution_size,omitempty"`
	Valid        *bool   `json:"valid,omitempty"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdsingest", flag.ContinueOnError)
	mode := fs.String("mode", "", "gen|parse|load|solve")
	in := fs.String("in", "", "input graph file")
	out := fs.String("o", "", "output file (gen)")
	format := fs.String("format", "auto", "input encoding: auto|json|edgelist|dimacs|csrbin")
	edges := fs.Int("edges", 100_000_000, "target edge count (gen)")
	workers := fs.Int("workers", 0, "worker count for parallel modes (0: GOMAXPROCS)")
	fingerprint := fs.Bool("fingerprint", false, "hash the loaded CSR (outside the timed window)")
	practical := core.PracticalParams()
	r1 := fs.Int("r1", practical.R1, "domination radius (solve; the default is core.PracticalParams)")
	r2 := fs.Int("r2", practical.R2, "independence radius (solve; the default is core.PracticalParams)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	rep := report{Mode: *mode, File: *in}
	var err error
	switch *mode {
	case "gen":
		rep.File = *out
		err = runGen(&rep, *out, *edges)
	case "parse":
		err = runParse(&rep, *in, *format, *workers, *fingerprint)
	case "load":
		err = runLoad(&rep, *in, *fingerprint)
	case "solve":
		err = runSolve(&rep, *in, *format, *workers, core.Params{R1: *r1, R2: *r2})
	default:
		return fmt.Errorf("unknown -mode %q (want gen|parse|load|solve)", *mode)
	}
	if err != nil {
		return err
	}
	rep.PeakRSSBytes = peakRSS()
	enc := json.NewEncoder(stdout)
	return enc.Encode(rep)
}

// Grid component shape for -mode gen: a 12x12 grid has 144 vertices and
// 264 edges, is planar, and reduces well under the pipeline — replicating
// it keeps the instance near-planar and component-parallel at any scale.
const (
	gridSide      = 12
	gridVertices  = gridSide * gridSide
	gridEdgeCount = 2 * gridSide * (gridSide - 1)
)

// runGen streams k disjoint grid components to out until the edge target
// is met. Purely deterministic and O(1) memory: nothing is ever a Graph.
func runGen(rep *report, out string, edges int) error {
	if out == "" {
		return fmt.Errorf("-mode gen requires -o")
	}
	if edges < 1 {
		return fmt.Errorf("-edges must be >= 1, got %d", edges)
	}
	comps := (edges + gridEdgeCount - 1) / gridEdgeCount
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	start := time.Now()
	buf := make([]byte, 0, 32)
	for c := 0; c < comps; c++ {
		base := c * gridVertices
		for row := 0; row < gridSide; row++ {
			for col := 0; col < gridSide; col++ {
				v := base + row*gridSide + col
				if col+1 < gridSide {
					buf = appendEdge(buf[:0], v, v+1)
					w.Write(buf)
				}
				if row+1 < gridSide {
					buf = appendEdge(buf[:0], v, v+gridSide)
					w.Write(buf)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.WallSeconds = time.Since(start).Seconds()
	rep.N = comps * gridVertices
	rep.M = comps * gridEdgeCount
	return nil
}

func appendEdge(b []byte, u, v int) []byte {
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, '\n')
}

func runParse(rep *report, in, format string, workers int, fingerprint bool) error {
	f, err := graphio.ParseFormat(format)
	if err != nil {
		return err
	}
	rep.Workers = workers
	start := time.Now()
	c, err := graphio.ParseCSRFile(in, f, graphio.CSROptions{Workers: workers})
	if err != nil {
		return err
	}
	rep.WallSeconds = time.Since(start).Seconds()
	finishCSR(rep, c, fingerprint)
	return nil
}

func runLoad(rep *report, in string, fingerprint bool) error {
	start := time.Now()
	m, err := graphio.OpenCSRBin(in, graphio.OpenOptions{})
	if err != nil {
		return err
	}
	rep.WallSeconds = time.Since(start).Seconds()
	defer m.Close()
	rep.Mapped = &m.Mapped
	finishCSR(rep, &m.CSR, fingerprint)
	return nil
}

func runSolve(rep *report, in, format string, workers int, p core.Params) error {
	rep.Workers = workers

	f, err := graphio.ParseFormat(format)
	if err != nil {
		return err
	}
	start := time.Now()
	csr, m, err := graphio.LoadCSR(in, f, graphio.CSROptions{Workers: workers})
	if err != nil {
		return err
	}
	if m != nil {
		defer m.Close()
		rep.Mapped = &m.Mapped
	}
	rep.WallSeconds = time.Since(start).Seconds()

	solveStart := time.Now()
	res, err := core.Alg1CSR(csr, p, core.PipelineOptions{Workers: workers})
	if err != nil {
		return err
	}
	rep.SolveSeconds = time.Since(solveStart).Seconds()
	rep.SolutionSize = len(res.S)
	valid := mds.IsDominatingSetCSR(csr, res.S)
	rep.Valid = &valid
	finishCSR(rep, csr, false)
	return nil
}

// finishCSR records the graph-shaped fields shared by every loading mode.
func finishCSR(rep *report, c *graph.CSR, fingerprint bool) {
	rep.N = c.N()
	rep.M = c.M()
	if fingerprint {
		fp := c.Fingerprint()
		rep.Fingerprint = fp.String()
	}
}

// peakRSS reads VmHWM (peak resident set) from /proc/self/status,
// returning 0 on platforms without procfs.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
