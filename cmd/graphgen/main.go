// Command graphgen emits workload graphs as JSON (the format graph.ReadJSON
// accepts), plain edge lists, DIMACS, the binary csrbin encoding, or
// Graphviz DOT — either generating them or converting a graph read from a
// file or stdin.
//
// Usage:
//
//	graphgen -kind ding|cactus|tree|cycle|grid|outerplanar|cliquependants|gnp \
//	         [-n N] [-t T] [-seed S] [-p P] \
//	         [-in graph|-] [-informat auto|json|edgelist|dimacs|csrbin] \
//	         [-format json|dot|edgelist|dimacs|csrbin] [-o out]
//
// With -in, graphgen converts instead of generating: the input encoding is
// auto-detected (or pinned with -informat) and malformed input exits 1
// with a line/column message. -oformat is an alias for -format, so any
// generator or text input can be pre-baked once into csrbin
// (graphgen -in huge.edges -oformat csrbin -o huge.csrbin) and re-solved
// cheaply through mdsrun's mmap loader.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

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
	oformat := fs.String("oformat", "", "alias for -format")
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

	g, err := loadOrGenerate(*in, *informat, *kind, *n, *tParam, *p, *seed)
	if err != nil {
		return err
	}

	if *oformat != "" {
		*format = *oformat
	}
	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		return g.WriteJSON(w)
	case "edgelist":
		return graphio.WriteEdgeList(w, g)
	case "dimacs":
		return graphio.WriteDIMACS(w, g)
	case "csrbin":
		return graphio.WriteCSRBin(w, g.Freeze())
	case "dot":
		_, err := io.WriteString(w, g.Freeze().DOT(*kind, nil))
		return err
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// loadOrGenerate converts from -in (any graphio format) or generates via
// the shared gen.FromKind dispatch.
func loadOrGenerate(in, informat, kind string, n, tParam int, p float64, seed int64) (*graph.Graph, error) {
	if in == "" {
		return gen.FromKind(kind, n, tParam, p, rand.New(rand.NewSource(seed)))
	}
	f, err := graphio.ParseFormat(informat)
	if err != nil {
		return nil, err
	}
	return graphio.ReadFile(in, f)
}
