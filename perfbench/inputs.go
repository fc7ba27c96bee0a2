package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strconv"

	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
)

// input is one generated graph as the benchmark hands it to the program:
// the edge-list bytes the benchmark wrote itself, and the oracle's view of
// the same edges.
type input struct {
	text  []byte // "n\n" header, then one "u v\n" line per edge, u < v, sorted
	n     int
	edges [][2]int32
	or    *oracle // built by prepare, outside the timed set-up
}

// newInput canonicalizes g's edges and encodes them as an edge list.
func newInput(g *graph.Graph) *input {
	in := &input{n: g.N()}
	g.VisitEdges(func(u, v int) {
		if u > v {
			u, v = v, u
		}
		in.edges = append(in.edges, [2]int32{int32(u), int32(v)})
	})
	sort.Slice(in.edges, func(i, j int) bool {
		a, b := in.edges[i], in.edges[j]
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	buf := strconv.AppendInt(nil, int64(in.n), 10)
	buf = append(buf, '\n')
	for _, e := range in.edges {
		buf = strconv.AppendInt(buf, int64(e[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, '\n')
	}
	in.text = buf
	return in
}

// prepare builds the oracle and drops the edge list it was built from.
func (in *input) prepare() {
	if in.or == nil {
		in.or = newOracle(in.n, in.edges)
		in.edges = nil
	}
}

// deriveSeed mixes the workload seed with labels (FNV-1a), so every input
// of every workload has its own reproducible random stream.
func deriveSeed(seed int64, labels ...string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return int64(h.Sum64() >> 1)
}

func rng(seed int64, labels ...string) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(seed, labels...)))
}

// Input sizes. solve mixes four Table 1 families inside every input (so
// each operation has the same mix and no percentile falls between input
// classes): a ding Mixed instance, a maximal outerplanar graph whose every
// vertex sits in a local 2-cut, a cactus full of 1-cuts and small exact
// components, and a grid. serve_hot sends ~1000-vertex ding graphs, fewer
// than the server's 256-entry cache holds; serve_cold sends distinct
// ~100-vertex ding graphs, each solved in a few milliseconds.
const (
	solveInputs   = 512
	solveDingN    = 100
	solveOuterN   = 12
	solveCactusN  = 33
	solveGridSide = 6
	hotInputs     = 32
	hotDingN      = 1000
	coldDingN     = 100
	dingT         = 5
	// digestOps is how many operations of the list the digest covers.
	digestOps = 256
)

func scaled(n, scale, floor int) int {
	if n/scale < floor {
		return floor
	}
	return n / scale
}

func dingGraph(n int, r *rand.Rand) (*graph.Graph, error) {
	return ding.Generate(ding.Config{Kind: ding.Mixed, N: n, T: dingT}, r)
}

// makeSolveInputs generates the solve workload's input files.
func makeSolveInputs(seed int64, scale int) ([]*input, error) {
	ins := make([]*input, solveInputs)
	for k := range ins {
		r := rng(seed, "solve", strconv.Itoa(k))
		d, err := dingGraph(scaled(solveDingN, scale, 10), r)
		if err != nil {
			return nil, err
		}
		g := graph.DisjointUnion(d, gen.MaximalOuterplanar(scaled(solveOuterN, scale, 5), r))
		g = graph.DisjointUnion(g, gen.RandomCactus(scaled(solveCactusN, scale, 5), r))
		side := scaled(solveGridSide, scale, 3)
		g = graph.DisjointUnion(g, gen.Grid(side, side))
		ins[k] = newInput(g)
	}
	return ins, nil
}

// makeHotInputs generates serve_hot's distinct payload graphs.
func makeHotInputs(seed int64, scale int) ([]*input, error) {
	ins := make([]*input, hotInputs)
	for k := range ins {
		g, err := dingGraph(scaled(hotDingN, scale, 10), rng(seed, "serve_hot", strconv.Itoa(k)))
		if err != nil {
			return nil, err
		}
		ins[k] = newInput(g)
	}
	return ins, nil
}

// makeColdInputs generates count pairwise distinct graphs for serve_cold,
// so every request is a cache miss. A rare duplicate is replaced by a
// graph from the next attempt's stream.
func makeColdInputs(seed int64, scale, count int) ([]*input, error) {
	ins := make([]*input, count)
	seen := make(map[[sha256.Size]byte]bool, count)
	for k := range ins {
		for attempt := 0; ; attempt++ {
			g, err := dingGraph(scaled(coldDingN, scale, 10),
				rng(seed, "serve_cold", strconv.Itoa(k), strconv.Itoa(attempt)))
			if err != nil {
				return nil, err
			}
			in := newInput(g)
			sum := sha256.Sum256(in.text)
			if !seen[sum] {
				seen[sum] = true
				ins[k] = in
				break
			}
		}
	}
	return ins, nil
}

// opList is the fixed operation list over k distinct inputs: a fresh
// seeded permutation of the inputs for every k consecutive operations.
func opList(seed int64, workload string, k, n int) []int {
	r := rng(seed, workload, "ops")
	ops := make([]int, 0, n+k)
	for len(ops) < n {
		ops = append(ops, r.Perm(k)...)
	}
	return ops[:n]
}

// inputDigest pins a workload's inputs and operation list: SHA-256 over
// the workload name, every input's bytes and the first digestOps
// operations, truncated to 16 bytes of hex.
func inputDigest(workload string, ins []*input, ops []int) string {
	h := sha256.New()
	io.WriteString(h, workload)
	var b [8]byte
	for _, in := range ins {
		binary.LittleEndian.PutUint64(b[:], uint64(len(in.text)))
		h.Write(b[:])
		h.Write(in.text)
	}
	for _, op := range ops[:min(len(ops), digestOps)] {
		binary.LittleEndian.PutUint64(b[:], uint64(op))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// workloadDigest regenerates and digests a workload's inputs for seed at
// full scale, as pinned in digests.json. serve_cold is digested over its
// first digestOps graphs.
func workloadDigest(workload string, seed int64) (string, error) {
	var ins []*input
	var err error
	var ops []int
	switch workload {
	case "solve":
		ins, err = makeSolveInputs(seed, 1)
		ops = opList(seed, workload, len(ins), digestOps)
	case "serve_hot":
		ins, err = makeHotInputs(seed, 1)
		ops = opList(seed, workload, len(ins), digestOps)
	case "serve_cold":
		ins, err = makeColdInputs(seed, 1, digestOps)
		ops = coldOps(digestOps)
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return "", err
	}
	return inputDigest(workload, ins, ops), nil
}

// coldOps is serve_cold's operation list: every graph once, in order.
func coldOps(n int) []int {
	ops := make([]int, n)
	for i := range ops {
		ops[i] = i
	}
	return ops
}

// pinSeeds is how many seeds (0..pinSeeds-1) digests.json pins per
// workload. A run with another seed also regenerates the inputs of the
// pinned canary seed (its seed modulo pinSeeds) and checks those.
const pinSeeds = 256

//go:embed digests.json
var pinsJSON []byte

func loadPins() (map[string]string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

func pinKey(workload string, seed int64) string {
	return workload + "/" + strconv.FormatInt(seed, 10)
}

// checkPins compares the run's input digest with the pinned one. For an
// unpinned seed at full scale it checks the canary seed (the seed modulo
// pinSeeds) instead, so a change to the generators fails every run. It
// returns the seed whose digest it verified, or -1.
func checkPins(cfg *config, digest string) (int64, error) {
	if want, ok := cfg.pinned[pinKey(cfg.workload, cfg.seed)]; ok {
		if want != digest {
			return cfg.seed, fmt.Errorf("input digest %s for seed %d differs from the pinned %s: the generated workload changed", digest, cfg.seed, want)
		}
		return cfg.seed, nil
	}
	if cfg.scale != 1 {
		return -1, nil
	}
	canary := int64(uint64(cfg.seed) % pinSeeds)
	want, ok := cfg.pinned[pinKey(cfg.workload, canary)]
	if !ok {
		return -1, fmt.Errorf("digests.json has no pin for %s", pinKey(cfg.workload, canary))
	}
	got, err := workloadDigest(cfg.workload, canary)
	if err != nil {
		return canary, err
	}
	if got != want {
		return canary, fmt.Errorf("input digest %s for canary seed %d differs from the pinned %s: the generated workload changed", got, canary, want)
	}
	return canary, nil
}

// printPins writes digests.json for seeds 0..n-1 of every workload.
func printPins(n int, stdout, stderr io.Writer) int {
	pins := map[string]string{}
	for _, w := range []string{"solve", "serve_hot", "serve_cold"} {
		for s := int64(0); s < int64(n); s++ {
			d, err := workloadDigest(w, s)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: pin %s: %v\n", pinKey(w, s), err)
				return 1
			}
			pins[pinKey(w, s)] = d
		}
	}
	out, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}
