// Command mdsingest times the two load paths that scripts/bench_ingest.sh
// gates on: the chunked text parse on its own, and the unverified csrbin
// mmap open, which no production loader runs. Every invocation performs
// one mode and emits a single JSON report on stdout, so the script can
// compose runs into a BENCH_ingest.json without parsing human-readable
// logs. The other stages are the repository's own CLIs: graphgen -kind
// grids generates the instance, graphgen -in huge.edges -format csrbin
// converts it, and mdsrun -in huge.csrbin -alg alg1 solves it.
//
// Usage:
//
//	mdsingest -mode parse -in huge.edges [-workers W] [-fingerprint]
//	mdsingest -mode load  -in huge.csrbin [-fingerprint]
//
// Modes:
//
//   - parse: the chunked text parser (graphio.ParseCSRFile) at W workers;
//     -workers 1 is the single-core baseline.
//   - load: OpenCSRBin — mmap on supported platforms, so the wall time is
//     independent of the graph size; the data is not verified.
//
// wall_seconds always times the mode's headline operation only;
// -fingerprint hashes the loaded CSR *outside* the timed window (it
// touches every page, which would otherwise hide the point of mmap).
// peak_rss_bytes is VmHWM from /proc/self/status (0 where unavailable).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"localmds/internal/graph"
	"localmds/internal/graphio"
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
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdsingest", flag.ContinueOnError)
	mode := fs.String("mode", "", "parse|load")
	in := fs.String("in", "", "input graph file")
	format := fs.String("format", "auto", "input encoding (parse): auto|json|edgelist|dimacs|csrbin")
	workers := fs.Int("workers", 0, "parse worker count (0: GOMAXPROCS)")
	fingerprint := fs.Bool("fingerprint", false, "hash the loaded CSR (outside the timed window)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	rep := report{Mode: *mode, File: *in}
	var err error
	switch *mode {
	case "parse":
		err = runParse(&rep, *in, *format, *workers, *fingerprint)
	case "load":
		err = runLoad(&rep, *in, *fingerprint)
	default:
		return fmt.Errorf("unknown -mode %q (want parse|load)", *mode)
	}
	if err != nil {
		return err
	}
	rep.PeakRSSBytes = peakRSS()
	enc := json.NewEncoder(stdout)
	return enc.Encode(rep)
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

// finishCSR records the graph-shaped fields shared by both modes.
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
