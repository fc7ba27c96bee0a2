package graphio

import (
	"bytes"
	"errors"
	"testing"

	"localmds/internal/graph"
)

// The graphio parsers face the network through mdsd's /v1/solve "data"
// payloads, so they are fuzzed under the same contract the service
// relies on (extending the internal/graph/fuzz_test.go pattern):
//
//   - no input may panic a parser;
//   - every rejection of a text format is a *ParseError with a 1-based
//     line position;
//   - ReadLimited never accepts a graph above its vertex bound;
//   - on the text formats, ReadLimited agrees with the streaming
//     reference reader (reference_test.go): the same graph, or the same
//     error string;
//   - every accepted graph validates and round-trips bit-identically
//     through the matching writer (parse → write → parse → Equal).
//
// Seed corpora live in testdata/fuzz/<Target>/ so `go test` replays
// them on every run and CI's -fuzz smoke mutates from real inputs.

// fuzzVertexLimit keeps adversarial vertex counts from allocating
// gigabytes per exec while still exercising the limit checks;
// fuzzEdgeLimit does the same for declared edge counts.
const (
	fuzzVertexLimit = 1 << 16
	fuzzEdgeLimit   = 1 << 17
)

// checkTextParse enforces the shared text-format contract and returns
// the parsed graph (nil if the input was rejected).
func checkTextParse(t *testing.T, data []byte, f Format) *graph.Graph {
	t.Helper()
	g, err := ReadLimited(bytes.NewReader(data), f, fuzzVertexLimit, fuzzEdgeLimit)
	checkMatchesReference(t, data, f, g, err)
	if err != nil {
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%v rejection is not a *ParseError: %v", f, err)
		}
		if pe.Line < 1 {
			t.Fatalf("%v ParseError with non-positive line: %+v", f, pe)
		}
		if pe.Error() == "" {
			t.Fatalf("%v ParseError with empty message", f)
		}
		return nil
	}
	if g.N() > fuzzVertexLimit {
		t.Fatalf("%v accepted %d vertices above the %d limit", f, g.N(), fuzzVertexLimit)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%v accepted graph fails validation: %v", f, err)
	}
	return g
}

// checkMatchesReference asserts that ReadLimited's outcome (g, err) on a
// text input equals the reference reader's at the fuzz limits.
func checkMatchesReference(t *testing.T, data []byte, f Format, g *graph.Graph, err error) {
	t.Helper()
	want, wantErr := referenceRead(data, f, fuzzVertexLimit, fuzzEdgeLimit)
	sameOutcome(t, f, g, err, want, wantErr)
}

// sameOutcome asserts that a parse (g, err) equals the reference reader's
// (want, wantErr): the same graph, or the same error string.
func sameOutcome(t *testing.T, f Format, g *graph.Graph, err error, want *graph.Graph, wantErr error) {
	t.Helper()
	switch {
	case err != nil && wantErr != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%v error %q, reference %q", f, err, wantErr)
		}
	case err != nil:
		t.Fatalf("%v rejects what the reference accepts: %v", f, err)
	case wantErr != nil:
		t.Fatalf("%v accepts what the reference rejects (%v)", f, wantErr)
	case !g.Equal(want):
		t.Fatalf("%v graph differs from the reference: n=%d m=%d vs n=%d m=%d", f, g.N(), g.M(), want.N(), want.M())
	}
}

// roundTrip writes g in format f and re-parses it, requiring equality.
func roundTrip(t *testing.T, g *graph.Graph, f Format) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g, f); err != nil {
		t.Fatalf("write %v: %v", f, err)
	}
	h, err := Read(bytes.NewReader(buf.Bytes()), f)
	if err != nil {
		t.Fatalf("round trip rejected %v output %q: %v", f, buf.String(), err)
	}
	if !g.Equal(h) {
		t.Fatalf("round trip through %v changed the graph:\n%q", f, buf.String())
	}
}

func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("4\n0 1\n2 3\n"))
	f.Add([]byte("# comment\n3\n0 1 # trailing\n\n1 2\n"))
	f.Add([]byte("7\n"))
	f.Add([]byte("0 0\n0 1\n0 1\n")) // self-loop + duplicate: collapsed
	f.Add([]byte("2\n0 5\n"))        // out of declared range
	f.Add([]byte("x y\n"))
	f.Add([]byte("99999999999999999999 0\n")) // overflows int
	f.Add([]byte("65537\n"))                  // above the fuzz vertex limit
	f.Fuzz(func(t *testing.T, data []byte) {
		g := checkTextParse(t, data, FormatEdgeList)
		if g != nil {
			roundTrip(t, g, FormatEdgeList)
		}
	})
}

func FuzzReadDIMACS(f *testing.F) {
	f.Add([]byte("c comment\np edge 3 2\ne 1 2\ne 2 3\n"))
	f.Add([]byte("p edge 0 0\n"))
	f.Add([]byte("p edge 2 1\ne 1 1\n")) // self-loop: collapsed
	f.Add([]byte("e 1 2\n"))             // edge before problem line
	f.Add([]byte("p edge 2 1\np edge 2 1\n"))
	f.Add([]byte("p edge 2 1\ne 1 9\n")) // endpoint out of range
	f.Add([]byte("q edge 2 1\n"))
	f.Add([]byte("p edge 65537 0\n")) // above the fuzz vertex limit
	f.Fuzz(func(t *testing.T, data []byte) {
		g := checkTextParse(t, data, FormatDIMACS)
		if g != nil {
			roundTrip(t, g, FormatDIMACS)
		}
	})
}

func FuzzReadJSON(f *testing.F) {
	f.Add([]byte(`{"n":3,"edges":[[0,1],[1,2]]}`))
	f.Add([]byte(`{"n":0,"edges":[]}`))
	f.Add([]byte(`{"n":-1}`))
	f.Add([]byte(`{"n":2,"edges":[[0,0]]}`))
	f.Add([]byte(`{"n":65537,"edges":[]}`))
	f.Add([]byte(`{"n":1e9}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadLimited(bytes.NewReader(data), FormatJSON, fuzzVertexLimit, fuzzEdgeLimit)
		if err != nil {
			return
		}
		if g.N() > fuzzVertexLimit {
			t.Fatalf("json accepted %d vertices above the %d limit", g.N(), fuzzVertexLimit)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("json accepted graph fails validation: %v", err)
		}
		roundTrip(t, g, FormatJSON)
	})
}

// FuzzReadAuto drives the sniffing front door exactly as the service's
// format-auto "data" payloads do: whatever the bytes, detection plus the
// dispatched parser must never panic, and anything accepted must be a
// valid in-limit graph.
func FuzzReadAuto(f *testing.F) {
	f.Add([]byte("0 1\n"))
	f.Add([]byte("c x\np edge 2 1\ne 1 2\n"))
	f.Add([]byte(`{"n":2,"edges":[[0,1]]}`))
	f.Add([]byte("\n\t 5\n0 1\n"))
	f.Add([]byte("!garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadLimited(bytes.NewReader(data), FormatAuto, fuzzVertexLimit, fuzzEdgeLimit)
		if text, derr := Detect(data[:min(len(data), 512)]); derr == nil && (text == FormatEdgeList || text == FormatDIMACS) {
			checkMatchesReference(t, data, text, g, err)
		}
		if err != nil {
			return
		}
		if g.N() > fuzzVertexLimit {
			t.Fatalf("auto accepted %d vertices above the %d limit", g.N(), fuzzVertexLimit)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("auto accepted graph fails validation: %v", err)
		}
	})
}
