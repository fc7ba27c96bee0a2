package service

import (
	"encoding/json"
	"testing"

	"localmds/internal/graph"
)

// parseSolveSeeds is FuzzParseSolve's seed corpus, shared with the
// ReadLimited differential test.
var parseSolveSeeds = []string{
	`{"graph": {"n": 3, "edges": [[0,1],[1,2]]}}`,
	`{"data": "0 1\n1 2\n"}`,
	`{"data": "p edge 3 2\ne 1 2\ne 2 3\n", "format": "dimacs"}`,
	`{"data": "{\"n\":2,\"edges\":[[0,1]]}", "format": "json"}`,
	`{"generator": {"kind": "grid", "n": 25, "seed": 1}}`,
	`{"generator": {"kind": "ding", "n": 40, "t": 5, "seed": 2}}`,
	`{"generator": {"kind": "gnp", "n": 30, "p": 0.1, "seed": 3}}`,
	`{"generator": {"kind": "warp", "n": 10}}`,
	`{"graph": {"n": 3}, "data": "0 1\n"}`, // two sources
	`{}`,
	`{"params": {"r1": 0, "r2": 1}, "data": "0 1\n"}`,
	`{"data": "2000000001\n0 1\n"}`, // over the vertex cap
	`garbage`,
}

// FuzzParseSolve throws raw request JSON — the exact bytes POST /v1/solve
// and each /v1/batch element decode — at the request parser. The
// contract mirrors the graphio fuzzers: never panic, never accept an
// instance above the vertex cap, always hand back a validated CSR
// with a deterministic content-addressed key, and classify every
// client mistake as a badRequestError (the 400 path) rather than a
// server fault.
func FuzzParseSolve(f *testing.F) {
	for _, seed := range parseSolveSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return // the handler 400s before parseSolve sees it
		}
		// Keep each exec cheap: huge payloads and generator sizes are
		// legal (the explicit limit tests cover them) but make the
		// fuzzer spend its budget building graphs instead of exploring
		// parser states.
		if len(req.Data) > 1<<16 || len(req.Graph) > 1<<16 {
			return
		}
		if g := req.Generator; g != nil && (g.N > 2048 || g.T > 64 || g.T < -64) {
			return
		}
		checkMatchesReadLimited(t, &req)
		ps, err := parseSolve(&req)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejection with empty message")
			}
			return
		}
		if ps.csr == nil {
			t.Fatalf("accepted solve with nil graph: %+v", ps)
		}
		if ps.csr.N() > maxRequestVertices {
			t.Fatalf("accepted %d vertices above the cap", ps.csr.N())
		}
		if err := graph.FromCSR(ps.csr).Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		if ps.source == "" {
			t.Fatal("accepted solve without a source tag")
		}
		// The content-addressed key must be deterministic: parsing the
		// same request twice yields the same key (the cache and the
		// in-flight dedup both depend on this).
		ps2, err := parseSolve(&req)
		if err != nil {
			t.Fatalf("second parse of an accepted request failed: %v", err)
		}
		if ps.key != ps2.key {
			t.Fatalf("non-deterministic solve key: %v vs %v", ps.key, ps2.key)
		}
	})
}
