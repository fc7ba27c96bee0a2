// Command mdsrun runs one of the paper's algorithms on a generated or
// file-loaded graph and prints the solution, its validity, the measured
// approximation ratio (when the instance is small enough for the exact
// solver), and — for the distributed algorithms — the LOCAL round count.
//
// Usage:
//
//	mdsrun -alg alg1|alg1-local|d2|d2-local|tree|greedy|exact|mvc-alg1|mvc-d2 \
//	       [-graph ding|cactus|tree|cycle|grid|grids|outerplanar|cliquependants|gnp] \
//	       [-in graph|-] [-format auto|json|edgelist|dimacs|csrbin] \
//	       [-n N] [-t T] [-seed S] [-p P] [-r1 R] [-r2 R] [-workers W] \
//	       [-opt] [-stages] [-trace out.json] [-dot out.dot]
//
// Without -opt, the exact optimum is a best-effort probe: instances under
// the solver cap get a node-budgeted exact solve, and the "optimum:" line
// is simply omitted when the probe gives up. With -opt, the optimum is
// mandatory: the solve runs unbudgeted and an instance beyond the solver
// cap is a clean one-line error (exit 1).
//
// Every input is loaded once, straight into a frozen CSR: a generated
// graph is frozen, and -in loads a file ("-" for stdin) through
// graphio.LoadCSR. The encoding — the repository JSON, a plain edge list,
// DIMACS, or the binary csrbin format — is auto-detected unless -format
// pins it. A csrbin file is mmap'd (the report then says "csr:
// mmap-backed"), so it loads without parsing, after one pass that checks
// its data checksum and canonical form; the text formats take the
// chunked parser at -workers goroutines. Malformed or damaged input exits
// 1 with a message naming the file and a line/column (or byte offset).
// Every algorithm, the LOCAL simulator, the report header, the optimum
// probe and -dot run on that CSR itself.
//
// -workers sets the text-parse width for every -in, and bounds the
// Algorithm 1 fan-out of -alg alg1 and mvc-alg1: the Cuts vertex loop and
// the component solves. The solution is the same at every worker count.
// The "solution digest:" line names the set itself (a hash of its sorted
// vertex ids), so two runs can be compared set for set without printing
// it.
//
// With the staged drivers -alg alg1 or mvc-alg1, -stages additionally
// prints the per-stage wall-time/allocation/size table recorded in the
// result's StageStats, and -trace out.json dumps the solve's span tree
// (stages plus per-component solves) in Chrome trace-event format,
// loadable directly in chrome://tracing or Perfetto; with other
// algorithms either flag is a clean one-line error.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"

	"localmds/internal/core"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
	"localmds/internal/local"
	"localmds/internal/mds"
	"localmds/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mdsrun: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mdsrun", flag.ContinueOnError)
	alg := fs.String("alg", "alg1", "algorithm: "+strings.Join(algorithms, "|"))
	kind := fs.String("graph", "ding", "generator: "+gen.Kinds)
	in := fs.String("in", "", "load the graph from this file (\"-\": stdin) instead of generating")
	format := fs.String("format", "auto", "input encoding for -in: auto|json|edgelist|dimacs|csrbin")
	n := fs.Int("n", 60, "target size for generated graphs")
	tParam := fs.Int("t", 5, "K_{2,t} parameter for the ding generator")
	seed := fs.Int64("seed", 1, "generator seed")
	p := fs.Float64("p", 0.05, "edge probability (gnp)")
	r1 := fs.Int("r1", 4, "Algorithm 1 local 1-cut radius")
	r2 := fs.Int("r2", 4, "Algorithm 1 local 2-cut radius")
	workers := fs.Int("workers", 0, "worker count for parsing a text -in, and for the Cuts and ComponentSolve fan-out of -alg alg1 and mvc-alg1 (0: GOMAXPROCS)")
	optFlag := fs.Bool("opt", false, "require the exact optimum and |S|/OPT ratio (error when the instance exceeds the solver cap)")
	stages := fs.Bool("stages", false, "print the Algorithm 1 pipeline per-stage timing/size table (requires -alg alg1 or mvc-alg1)")
	traceOut := fs.String("trace", "", "write the solve span tree in Chrome trace-event format to this file (requires -alg alg1 or mvc-alg1)")
	dotOut := fs.String("dot", "", "write the graph with the solution highlighted to this DOT file")
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
	if !slices.Contains(algorithms, *alg) {
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	if *r1 < 0 || *r2 < 0 {
		return fmt.Errorf("-r1 and -r2 must be >= 0, got %d and %d", *r1, *r2)
	}
	staged := *alg == "alg1" || *alg == "mvc-alg1"
	if *stages && !staged {
		return fmt.Errorf("-stages requires -alg alg1 or mvc-alg1 (the staged drivers), got -alg %s", *alg)
	}
	if *traceOut != "" && !staged {
		return fmt.Errorf("-trace requires -alg alg1 or mvc-alg1 (the staged drivers), got -alg %s", *alg)
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	var csr *graph.CSR
	var mapped *graphio.MappedCSR
	if *in == "" {
		var err error
		if csr, err = gen.FromKind(*kind, *n, *tParam, *p, rand.New(rand.NewSource(*seed))); err != nil {
			return err
		}
	} else {
		f, err := graphio.ParseFormat(*format)
		if err != nil {
			return err
		}
		if csr, mapped, err = graphio.LoadCSR(*in, f, graphio.CSROptions{Workers: *workers}); err != nil {
			return err
		}
		if mapped != nil {
			defer mapped.Close()
		}
	}
	// The header's diameter search is capped at linear work: 16 BFS runs
	// over the graph past the sweeps, plus a floor that lets any graph of
	// a few thousand vertices finish. Where iFUB's bounds meet late (a
	// long cycle needs a BFS from half its vertices) the header prints the
	// bounds it has instead of running for hours.
	lo, hi, comps := csr.Diameter(graph.NewArena(), 1<<24+16*(csr.N()+len(csr.Targets)))
	diam, capped := fmt.Sprint(lo), ""
	if hi > lo {
		diam, capped = fmt.Sprintf("between %d and %d", lo, hi), "; search capped at linear work"
	}
	if comps > 1 {
		// On a disconnected graph the plain "diameter" would silently be
		// the largest within-component eccentricity, which reads as a
		// tiny connected graph; say what is actually being reported.
		fmt.Fprintf(stdout, "graph: Graph(n=%d, m=%d) (%d components, diameter %s = max eccentricity over reachable pairs%s)\n",
			csr.N(), csr.M(), comps, diam, capped)
	} else {
		fmt.Fprintf(stdout, "graph: Graph(n=%d, m=%d) (diameter %s%s)\n", csr.N(), csr.M(), diam, capped)
	}
	if mapped != nil && mapped.Mapped {
		fmt.Fprintln(stdout, "csr: mmap-backed")
	}

	tr, root := newCLITrace(*traceOut)
	sol, stats, stageStats, err := solve(csr, *alg, core.Params{R1: *r1, R2: *r2}, *workers, core.SpanHooks(root))
	if err != nil {
		return err
	}
	if tr != nil {
		root.End()
		if err := writeChromeTrace(*traceOut, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote trace %s\n", *traceOut)
	}
	isMVC := *alg == "mvc-alg1" || *alg == "mvc-d2"
	fmt.Fprintf(stdout, "algorithm: %s\nsolution size: %d\nsolution digest: %s\n", *alg, len(sol), solutionDigest(sol))
	if isMVC {
		fmt.Fprintf(stdout, "valid vertex cover: %v\n", mds.IsVertexCover(csr, sol))
	} else {
		fmt.Fprintf(stdout, "valid dominating set: %v\n", mds.IsDominatingSetCSR(csr, sol))
	}
	if stats != nil {
		fmt.Fprintf(stdout, "LOCAL rounds: %d, messages: %d\n", stats.Rounds, stats.Messages)
	}
	if *optFlag {
		opt, err := optimum(csr, isMVC, 0)
		if err != nil {
			return fmt.Errorf("-opt: %w", err)
		}
		if opt > 0 {
			fmt.Fprintf(stdout, "optimum: %d, ratio: %.3f\n", opt, float64(len(sol))/float64(opt))
		}
	} else if csr.N() <= mds.MaxExactMDSVertices {
		// Best-effort probe: a node budget keeps adversarial instances
		// under the cap (large grids, sparse random graphs) from stalling
		// a run that never asked for OPT.
		opt, err := optimum(csr, isMVC, autoOptNodeBudget)
		if err == nil && opt > 0 {
			fmt.Fprintf(stdout, "optimum: %d, ratio: %.3f\n", opt, float64(len(sol))/float64(opt))
		}
	}
	if *stages {
		fmt.Fprintf(stdout, "\npipeline stages:\n%s", stageStats.Render())
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(csr.DOT("solution", sol)), 0o644); err != nil {
			return fmt.Errorf("write dot: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dotOut)
	}
	return nil
}

// autoOptNodeBudget bounds the automatic (non -opt) exact probe. The
// engine's per-node cost grows roughly quadratically with the instance
// (the packing bound scans the undominated set), measured at ~18µs/node
// at the 500-vertex scale — so 100k nodes caps the silent probe at ~2s
// on the largest cap-admitted instances and far less on typical ones,
// before the ratio line is dropped. -opt runs unbudgeted.
const autoOptNodeBudget = 100_000

// optimum computes the exact optimum for ratio reporting. maxNodes > 0
// bounds the exact solver's search.
func optimum(c *graph.CSR, isMVC bool, maxNodes int64) (int, error) {
	opt := mds.ExactOptions{MaxNodes: maxNodes}
	solver := mds.ExactMDS
	if isMVC {
		solver = mds.ExactMVC
	}
	sol, err := solver(c, opt)
	return len(sol), err
}

// newCLITrace creates the CLI solve trace, or (nil, nil) when -trace is
// off. The fixed trace ID keeps span IDs deterministic run to run, so two
// traces of the same instance diff cleanly.
func newCLITrace(traceOut string) (*obs.Trace, *obs.Span) {
	if traceOut == "" {
		return nil, nil
	}
	return obs.NewTrace("mdsrun", "solve", obs.TraceOptions{MaxSpans: 1 << 16})
}

// writeChromeTrace dumps the span tree in Chrome trace-event format.
func writeChromeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// solutionDigest names a vertex set by the SHA-256 of its sorted ids (8
// bytes little-endian each), truncated to 128 bits: two runs print the
// same digest exactly when they chose the same set, at any size.
func solutionDigest(s []int) string {
	ids := slices.Clone(s)
	slices.Sort(ids)
	h := sha256.New()
	var b [8]byte
	for _, v := range ids {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// algorithms lists the -alg values solve runs; run rejects any other
// before it loads the input.
var algorithms = []string{"alg1", "alg1-local", "d2", "d2-local", "tree", "greedy", "exact", "mvc-alg1", "mvc-d2"}

// solve runs alg on the loaded instance c.
func solve(c *graph.CSR, alg string, p core.Params, workers int, hooks core.TraceHooks) ([]int, *local.Stats, core.StageStats, error) {
	switch alg {
	case "alg1":
		res, err := core.Alg1CSR(c, p, core.PipelineOptions{Workers: workers, Hooks: hooks})
		if err != nil {
			return nil, nil, nil, err
		}
		return res.S, nil, res.StageStats, nil
	case "alg1-local":
		sol, stats, err := core.RunAlg1(c, nil, p)
		return sol, &stats, nil, err
	case "d2":
		return core.D2(c).S, nil, nil, nil
	case "d2-local":
		sol, stats, err := core.RunD2(c, nil)
		return sol, &stats, nil, err
	case "tree":
		return core.TreeMDS(c), nil, nil, nil
	case "greedy":
		return mds.GreedyMDS(c), nil, nil, nil
	case "exact":
		sol, err := mds.ExactMDS(c, mds.ExactOptions{})
		return sol, nil, nil, err
	case "mvc-alg1":
		res, err := core.MVCAlg1(c, p, core.PipelineOptions{Workers: workers, Hooks: hooks})
		if err != nil {
			return nil, nil, nil, err
		}
		return res.S, nil, res.StageStats, nil
	case "mvc-d2":
		return core.MVCD2(c).S, nil, nil, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown algorithm %q", alg)
	}
}
