package service

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"localmds/internal/core"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
)

// SolveRequest is the body of POST /v1/solve and each element of a batch.
// Exactly one graph source must be set: an inline JSON graph, a text
// payload in one of the graphio formats, or a generator spec.
type SolveRequest struct {
	// Graph is the repository JSON encoding {"n": ..., "edges": [...]}.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Data is a text payload (edge list, DIMACS, or JSON) in Format.
	Data string `json:"data,omitempty"`
	// Format names the encoding of Data: auto (default), json, edgelist,
	// dimacs.
	Format string `json:"format,omitempty"`
	// Generator asks the server to generate the instance instead.
	Generator *GeneratorSpec `json:"generator,omitempty"`
	// Params are the Algorithm 1 radii; omitted fields default to
	// PracticalParams (r1=4, r2=4) and the standard brute-force cap.
	Params *core.Params `json:"params,omitempty"`
}

// GeneratorSpec mirrors the graphgen CLI's knobs.
type GeneratorSpec struct {
	Kind string  `json:"kind"`
	N    int     `json:"n"`
	T    int     `json:"t,omitempty"`
	P    float64 `json:"p,omitempty"`
	Seed int64   `json:"seed"`
}

// maxRequestVertices bounds the vertex count of any requested instance,
// whatever the source. The 64 MB body cap bounds edge counts but not a
// declared vertex count: without this limit a 40-byte payload could make
// the handler allocate a multi-gigabyte adjacency structure and OOM the
// daemon before the queue's load shedding applies.
const maxRequestVertices = 2_000_000

// maxRequestEdges bounds the declared edge count the same way: a DIMACS
// problem line (or a future binary payload) can state an m far larger than
// the 64 MB body could ever deliver, and the parsers preallocate from it.
const maxRequestEdges = 20_000_000

// generatorMaxEdges is the worst-case edge count of the generators whose
// edges, and work, grow quadratically in n: gnp visits all n(n-1)/2
// pairs, and cliquependants builds a clique on q = n/2 vertices plus two
// edges per pendant. parseSolve holds it to maxRequestEdges before it
// generates anything; every other kind has O(n) edges.
func generatorMaxEdges(kind string, n int) int {
	switch kind {
	case "gnp":
		return n * (n - 1) / 2
	case "cliquependants":
		q := n / 2
		return q*(q-1)/2 + 2*(q-1)
	}
	return 0
}

// badRequestError marks client errors (HTTP 400) as opposed to solver
// failures (HTTP 500).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// parsedSolve is a validated, frozen solve request ready for the queue.
// The CSR is the only graph it keeps.
type parsedSolve struct {
	csr    *graph.CSR
	params core.Params
	key    solveKey
	source string // "graph", "data", or "generator:<kind>" — diagnostics only
}

// requestLimits are the parse caps every payload is held to.
var requestLimits = graphio.CSROptions{MaxVertices: maxRequestVertices, MaxEdges: maxRequestEdges}

// parseSolve validates req, materializes the frozen graph, and derives the
// content-addressed cache key. Payloads go through graphio.ParseCSR
// without a pool (sequentially), whose CSR is bit-identical to
// ReadLimited(...).Freeze(), so fingerprints — and the cache and store
// keys derived from them — do not depend on the parse path.
func parseSolve(req *SolveRequest) (*parsedSolve, error) {
	sources := 0
	for _, set := range []bool{len(req.Graph) > 0, req.Data != "", req.Generator != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, badRequestf("exactly one of \"graph\", \"data\", or \"generator\" must be set, got %d", sources)
	}

	params := core.PracticalParams()
	if req.Params != nil {
		params = *req.Params
	}
	params, err := params.Normalized()
	if err != nil {
		return nil, badRequestf("params: %v", err)
	}

	var csr *graph.CSR
	source := ""
	switch {
	case len(req.Graph) > 0:
		source = "graph"
		csr, err = graphio.ParseCSR(req.Graph, graphio.FormatJSON, requestLimits)
		if err != nil {
			return nil, badRequestf("graph: %v", err)
		}
	case req.Data != "":
		f, err := graphio.ParseFormat(req.Format)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		source = "data/" + f.String()
		csr, err = graphio.ParseCSR([]byte(req.Data), f, requestLimits)
		if err != nil {
			return nil, badRequestf("data: %v", err)
		}
	default:
		spec := req.Generator
		if spec.Kind == "" {
			return nil, badRequestf("generator: missing \"kind\"")
		}
		if spec.N < 1 {
			return nil, badRequestf("generator: \"n\" must be >= 1, got %d", spec.N)
		}
		if spec.N > maxRequestVertices {
			return nil, badRequestf("generator: \"n\" = %d exceeds the limit %d", spec.N, maxRequestVertices)
		}
		if m := generatorMaxEdges(spec.Kind, spec.N); m > maxRequestEdges {
			return nil, badRequestf("generator: %q with \"n\" = %d can produce %d edges, over the limit %d", spec.Kind, spec.N, m, maxRequestEdges)
		}
		t := spec.T
		if t == 0 {
			t = 5
		}
		if spec.Kind == "ding" && t < 3 {
			return nil, badRequestf("generator: \"t\" must be >= 3 for the ding generator, got %d", t)
		}
		if spec.P < 0 || spec.P > 1 {
			return nil, badRequestf("generator: \"p\" must be a probability in [0, 1], got %g", spec.P)
		}
		source = "generator:" + spec.Kind
		if csr, err = gen.FromKind(spec.Kind, spec.N, t, spec.P, rand.New(rand.NewSource(spec.Seed))); err != nil {
			return nil, badRequestf("generator: %v", err)
		}
	}

	return &parsedSolve{
		csr:    csr,
		params: params,
		key:    newSolveKey(csr, params),
		source: source,
	}, nil
}
