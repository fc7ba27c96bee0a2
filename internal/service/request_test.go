package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"localmds/internal/core"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/graphio"
)

// readLimitedCSR is the spec for parseSolve's request plumbing: the same
// request checks, then graphio.ReadLimited and Freeze. Both end in
// graphio's one text parser, so the parser itself is pinned elsewhere:
// graphio's TestServicePayloadsMatchReference reads this file's text
// payloads at the service's caps and compares them with the streaming
// reference reader kept in graphio's tests, and graph's tests pin JSON
// edge validation to AddEdgeChecked. ok is false for generator requests,
// which parse no payload.
func readLimitedCSR(req *SolveRequest) (csr *graph.CSR, ok bool, err error) {
	if req.Generator != nil && len(req.Graph) == 0 && req.Data == "" {
		return nil, false, nil
	}
	sources := 0
	for _, set := range []bool{len(req.Graph) > 0, req.Data != "", req.Generator != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, true, errors.New("sources")
	}
	p := core.PracticalParams()
	if req.Params != nil {
		p = *req.Params
	}
	if _, err := p.Normalized(); err != nil {
		return nil, true, err
	}
	f, text := graphio.FormatJSON, string(req.Graph)
	if req.Data != "" {
		if f, err = graphio.ParseFormat(req.Format); err != nil {
			return nil, true, err
		}
		text = req.Data
	}
	g, err := graphio.ReadLimited(strings.NewReader(text), f, maxRequestVertices, maxRequestEdges)
	if err != nil {
		return nil, true, err
	}
	return g.Freeze(), true, nil
}

// checkMatchesReadLimited asserts that parseSolve and the ReadLimited spec
// agree on req: both accept with the same CSR and fingerprint, or both
// reject, parseSolve with a badRequestError.
func checkMatchesReadLimited(t *testing.T, req *SolveRequest) {
	t.Helper()
	want, ok, wantErr := readLimitedCSR(req)
	if !ok {
		return
	}
	ps, err := parseSolve(req)
	switch {
	case err != nil && wantErr != nil:
		var bad *badRequestError
		if !errors.As(err, &bad) {
			t.Fatalf("rejection is not a badRequestError: %T %v", err, err)
		}
	case err != nil:
		t.Fatalf("parseSolve rejects what ReadLimited accepts: %v", err)
	case wantErr != nil:
		t.Fatalf("parseSolve accepts what ReadLimited rejects (%v)", wantErr)
	default:
		if !slices.Equal(ps.csr.Offsets, want.Offsets) || !slices.Equal(ps.csr.Targets, want.Targets) {
			t.Fatalf("CSR differs from ReadLimited(...).Freeze(): n=%d m=%d vs n=%d m=%d",
				ps.csr.N(), ps.csr.M(), want.N(), want.M())
		}
		if ps.key.fp != want.Fingerprint() {
			t.Fatalf("fingerprint %v, ReadLimited gives %v", ps.key.fp, want.Fingerprint())
		}
	}
}

// TestParseSolveMatchesReadLimited pins the request parse path to
// ReadLimited(...).Freeze(), on every format, auto-sniffing, the
// limits, malformed payloads and every FuzzParseSolve seed: equal
// fingerprints keep cache keys and existing store entries valid.
func TestParseSolveMatchesReadLimited(t *testing.T) {
	g, err := gen.FromKind("ding", 300, 5, 0, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var edges, dimacs, bin bytes.Buffer
	if err := graphio.Write(&edges, g, graphio.FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(&dimacs, g, graphio.FormatDIMACS); err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(&bin, g, graphio.FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	var inline bytes.Buffer
	if err := graphio.Write(&inline, g, graphio.FormatJSON); err != nil {
		t.Fatal(err)
	}
	reqs := []SolveRequest{
		{Data: edges.String()},
		{Data: edges.String(), Format: "edgelist"},
		{Data: dimacs.String()},
		{Data: dimacs.String(), Format: "dimacs"},
		{Data: inline.String()},
		{Data: inline.String(), Format: "json"},
		{Graph: inline.Bytes()},
		{Data: bin.String()},
		{Data: bin.String(), Format: "csrbin"},
		{Data: "# comment\n% other\n\n5\n0 1\n1 2\r\n2 0 \n"}, // header, isolated vertices, CRLF
		{Data: "0 1\n1 0\n0 1\n2 2\n"},                        // duplicates and a self-loop
		{Data: "  \n\t0 1\n"},
		{Data: "0 1\nx 2\n"},
		{Data: "0 1 2\n"},
		{Data: "-1 2\n"},
		{Data: "3\n0 5\n"},
		{Data: "0 1\n", Format: "dimacs"},
		{Data: "c hi\np edge 4 1\ne 1 4\n"},
		{Data: "p edge 3 1\ne 0 1\n"},
		{Data: "p edge 3 1\ne 1 4\n"},
		{Data: "p edge 3 1\ne 1 2\ne 2 3\n"},
		{Data: "p edge 3000000 0\n"},
		{Data: "p edge 3 30000000\n"},
		{Data: "p col 3 1\ne 1 2\n"},
		{Data: `{"n": 3, "edges": [[0, 1], [0, 1]]}`},
		{Data: `{"n": 3, "edges": [[0, 3]]}`},
		{Data: `{"n": -1}`},
		{Data: `{"n": 3000000}`},
		{Data: `{"n": 2, "edges": [[0, 1]]} trailing`},
		{Data: `{"n":2,"edges":[[0,1]]}{"n":9}`},
		{Graph: json.RawMessage(`{"n": 2, "edges": [[1, 1]]}`)},
		{Graph: json.RawMessage(`[1, 2]`)},
		{Data: "@0 1\n"},
		{Data: "   \n"},
		{Data: "0 1\n", Format: "xml"},
		{Data: "0 1\n", Format: "csrbin"},
		{Data: bin.String()[:40]},
		{Data: "0 1\n", Params: &core.Params{R1: -1, R2: 1}},
	}
	for _, seed := range parseSolveSeeds {
		var req SolveRequest
		if json.Unmarshal([]byte(seed), &req) == nil { // else the handler 400s first
			reqs = append(reqs, req)
		}
	}
	for i := range reqs {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkMatchesReadLimited(t, &reqs[i]) })
	}
	// The encodings of the ding graph must be accepted, not merely
	// rejected alike.
	for i := range 9 {
		if _, err := parseSolve(&reqs[i]); err != nil {
			t.Errorf("request %d rejected: %v", i, err)
		}
	}
	// JSON with data after the document is rejected by both, not
	// truncated to its first document.
	for _, data := range []string{`{"n": 2, "edges": [[0, 1]]} trailing`, `{"n":2,"edges":[[0,1]]}{"n":9}`} {
		req := SolveRequest{Data: data}
		if _, err := parseSolve(&req); err == nil {
			t.Errorf("parseSolve accepts trailing data: %q", data)
		}
		if _, _, err := readLimitedCSR(&req); err == nil {
			t.Errorf("ReadLimited accepts trailing data: %q", data)
		}
	}
}

// TestGeneratorMaxEdges pins the worst-case edge bound at the limit's
// boundary: gnp's largest accepted n is 6325 (19,999,650 pairs), and
// cliquependants' is 12,647 (q = 6323: 19,987,003 clique edges and
// 12,644 pendant edges).
// parseSolve is not run on the accepted sizes, which would generate.
func TestGeneratorMaxEdges(t *testing.T) {
	cases := []struct {
		kind string
		n    int
		over bool
	}{
		{"gnp", 6325, false}, {"gnp", 6326, true},
		{"cliquependants", 12_647, false}, {"cliquependants", 12_648, true},
		{"ding", maxRequestVertices, false}, {"grid", maxRequestVertices, false},
	}
	for _, c := range cases {
		if m := generatorMaxEdges(c.kind, c.n); (m > maxRequestEdges) != c.over {
			t.Errorf("%s n=%d: %d edges, over the limit = %v, want %v", c.kind, c.n, m, m > maxRequestEdges, c.over)
		}
	}
	for _, c := range cases {
		if !c.over {
			continue
		}
		_, err := parseSolve(&SolveRequest{Generator: &GeneratorSpec{Kind: c.kind, N: c.n}})
		if err == nil || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s n=%d: want a limit error, got %v", c.kind, c.n, err)
		}
	}
}
