// Command graphgen emits workload graphs as JSON, plain edge lists,
// DIMACS, the binary csrbin encoding, or Graphviz DOT — either generating
// them or converting a graph read from a file or stdin. It holds only the
// frozen graph.CSR: a generated graph is frozen once, an input is parsed
// straight to a CSR, and every format but DOT is written by
// graphio.Write.
//
// Usage:
//
//	graphgen -kind ding|cactus|tree|cycle|grid|grids|outerplanar|cliquependants|gnp \
//	         [-n N] [-t T] [-seed S] [-p P] \
//	         [-in graph|-] [-informat auto|json|edgelist|dimacs|csrbin] \
//	         [-format json|dot|edgelist|dimacs|csrbin] [-o out]
//
// With -in, graphgen converts instead of generating: the input encoding is
// auto-detected (or pinned with -informat), a text input is parsed in
// parallel on GOMAXPROCS workers, and malformed input exits 1 with a
// line/column message. Any generator or text input can be pre-baked once
// into csrbin (graphgen -in huge.edges -format csrbin -o huge.csrbin) and
// re-solved cheaply through mdsrun's mmap loader. This is the repository's
// one converter.
//
// -kind grids is ⌊n/144⌋ disjoint 12×12 grids, tiled straight into the
// CSR arrays: the near-planar, component-parallel huge instance of
// scripts/bench_ingest.sh. A DOT graph is named after -kind, or after the
// -in file's base name.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	kind := fs.String("kind", "ding", "generator kind: "+gen.Kinds)
	n := fs.Int("n", 60, "target size")
	tParam := fs.Int("t", 5, "K_{2,t} parameter (ding)")
	seed := fs.Int64("seed", 1, "seed")
	p := fs.Float64("p", 0.05, "edge probability (gnp)")
	in := fs.String("in", "", "convert a graph read from this file (\"-\": stdin) instead of generating")
	informat := fs.String("informat", "auto", "input encoding for -in: auto|json|edgelist|dimacs|csrbin")
	format := fs.String("format", "json", "output format: json|dot|edgelist|dimacs|csrbin")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and exits 0, as before the FlagSet refactor
		}
		return err
	}
	if *in == "" {
		if *n < 1 {
			return fmt.Errorf("-n must be >= 1, got %d", *n)
		}
		if *kind == "ding" && *tParam < 3 {
			return fmt.Errorf("-t must be >= 3 for the ding generator, got %d", *tParam)
		}
		if *p < 0 || *p > 1 {
			return fmt.Errorf("-p must be a probability in [0, 1], got %g", *p)
		}
	}

	var f graphio.Format
	if *format != "dot" {
		var err error
		if f, err = graphio.ParseFormat(*format); err != nil {
			return err
		}
	}
	c, err := loadOrGenerate(*in, *informat, *kind, *n, *tParam, *p, *seed)
	if err != nil {
		return err
	}
	name := *kind
	if *in != "" {
		name = strings.TrimSuffix(filepath.Base(*in), filepath.Ext(*in))
	}
	switch {
	case *format == "dot" && *out == "":
		_, err = io.WriteString(stdout, c.DOT(name, nil))
	case *format == "dot":
		err = os.WriteFile(*out, []byte(c.DOT(name, nil)), 0o666)
	case *out == "":
		err = graphio.Write(stdout, c, f)
	default:
		err = graphio.WriteFile(*out, c, f)
	}
	return err
}

// loadOrGenerate parses -in (any graphio format) straight to a CSR, or
// generates one through the shared gen.FromKind dispatch.
func loadOrGenerate(in, informat, kind string, n, tParam int, p float64, seed int64) (*graph.CSR, error) {
	if in == "" {
		return gen.FromKind(kind, n, tParam, p, rand.New(rand.NewSource(seed)))
	}
	f, err := graphio.ParseFormat(informat)
	if err != nil {
		return nil, err
	}
	return graphio.ParseCSRFile(in, f, graphio.CSROptions{Workers: runtime.GOMAXPROCS(0)})
}
