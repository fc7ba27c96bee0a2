package graphio

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

func mustRead(t *testing.T, input string, f Format) *graph.Graph {
	t.Helper()
	g, err := Read(strings.NewReader(input), f)
	if err != nil {
		t.Fatalf("Read(%q, %v): %v", input, f, err)
	}
	return g
}

func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("graph mismatch: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	want.VisitEdges(func(u, v int) {
		if !got.HasEdge(u, v) {
			t.Fatalf("missing edge {%d,%d}", u, v)
		}
	})
}

func TestReadEdgeList(t *testing.T) {
	want := graph.MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	for name, input := range map[string]string{
		"plain":        "0 1\n1 2\n2 3\n",
		"header":       "5\n0 1\n1 2\n2 3\n",
		"comments":     "# a comment\n5 # header\n0 1  # trailing\n% another\n1 2\n\n2 3\n",
		"whitespace":   "  0\t1 \r\n1 2\n2 3\n",
		"duplicates":   "5\n0 1\n1 0\n1 2\n2 3\n2 2\n",
		"unordered":    "2 3\n1 2\n0 1\n4 4\n",
		"headerspaced": "  5  \n0 1\n1 2\n2 3\n",
	} {
		t.Run(name, func(t *testing.T) {
			g := mustRead(t, input, FormatEdgeList)
			if name == "plain" || name == "whitespace" {
				// No header: n is max endpoint + 1 = 4.
				sameGraph(t, g, graph.MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}))
				return
			}
			sameGraph(t, g, want)
		})
	}
}

func TestReadDIMACS(t *testing.T) {
	input := "c a comment\np edge 5 3\ne 1 2\ne 2 3\ne 3 4\n"
	g := mustRead(t, input, FormatDIMACS)
	sameGraph(t, g, graph.MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}}))
}

func TestAutoDetect(t *testing.T) {
	cases := []struct {
		input string
		want  Format
	}{
		{`{"n":3,"edges":[[0,1],[1,2]]}`, FormatJSON},
		{"0 1\n1 2\n", FormatEdgeList},
		{"# comment\n0 1\n1 2\n", FormatEdgeList},
		{"c x\np edge 3 2\ne 1 2\ne 2 3\n", FormatDIMACS},
		{"p edge 3 2\ne 1 2\ne 2 3\n", FormatDIMACS},
	}
	want := graph.MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	for _, c := range cases {
		f, err := Detect([]byte(c.input))
		if err != nil {
			t.Fatalf("Detect(%q): %v", c.input, err)
		}
		if f != c.want {
			t.Fatalf("Detect(%q) = %v, want %v", c.input, f, c.want)
		}
		sameGraph(t, mustRead(t, c.input, FormatAuto), want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, input string
		f           Format
		line, col   int
	}{
		{"negative vertex", "0 1\n1 -2\n", FormatEdgeList, 2, 3},
		{"non-numeric", "0 1\nfoo 2\n", FormatEdgeList, 2, 1},
		{"three fields", "0 1 2\n", FormatEdgeList, 1, 1},
		{"header range", "3\n0 5\n", FormatEdgeList, 2, 3},
		{"dimacs no p", "e 1 2\n", FormatDIMACS, 1, 1},
		{"dimacs range", "p edge 3 1\ne 1 9\n", FormatDIMACS, 2, 5},
		{"dimacs zero vertex", "p edge 3 1\ne 0 1\n", FormatDIMACS, 2, 3},
		{"dimacs junk", "p edge 3 1\nq 1 2\n", FormatDIMACS, 2, 1},
		{"dimacs dup p", "p edge 3 1\np edge 3 1\n", FormatDIMACS, 2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.input), c.f)
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Read(%q) error = %v, want *ParseError", c.input, err)
			}
			if pe.Line != c.line || pe.Col != c.col {
				t.Fatalf("Read(%q) error at line %d col %d (%s), want line %d col %d",
					c.input, pe.Line, pe.Col, pe.Msg, c.line, c.col)
			}
		})
	}
	// A missing problem line reports after the last line, with no column.
	_, err := Read(strings.NewReader("c only comments\n"), FormatDIMACS)
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "problem line") {
		t.Fatalf("missing problem line: %v", err)
	}
}

func TestDetectRejectsGarbage(t *testing.T) {
	for _, input := range []string{"", "   \n\t", "hello world"} {
		if _, err := Detect([]byte(input)); err == nil {
			t.Fatalf("Detect(%q): want error", input)
		}
	}
}

// TestRoundTrip checks Write/Read inverses across formats on generated
// graphs, including one with trailing isolated vertices.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*graph.Graph{
		gen.Grid(4, 5),
		gen.GNP(30, 0.2, rng),
		graph.New(6), // edgeless: survives only via header / problem line
		graph.MustFromEdges(7, [][2]int{{0, 1}, {2, 3}}),
	}
	for _, g := range graphs {
		for _, f := range []Format{FormatJSON, FormatEdgeList, FormatDIMACS} {
			var buf bytes.Buffer
			if err := Write(&buf, g, f); err != nil {
				t.Fatalf("Write(%v): %v", f, err)
			}
			back, err := Read(bytes.NewReader(buf.Bytes()), FormatAuto)
			if err != nil {
				t.Fatalf("Read back (%v): %v\ninput:\n%s", f, err, buf.String())
			}
			sameGraph(t, back, g)
		}
	}
}

// TestReadLimited: every format rejects a vertex or edge count beyond the
// limit before building anything, and accepts counts at the limit.
func TestReadLimited(t *testing.T) {
	over := map[string]string{
		"json header":       `{"n":1000001,"edges":[]}`,
		"edgelist header":   "1000001\n0 1\n",
		"edgelist endpoint": "0 1000000\n",
		"dimacs header":     "p edge 1000001 0\n",
	}
	for name, input := range over {
		if _, err := ReadLimited(strings.NewReader(input), FormatAuto, 1_000_000, 0); err == nil {
			t.Fatalf("%s: limit not enforced", name)
		} else if !strings.Contains(err.Error(), "limit") {
			t.Fatalf("%s: error %q does not mention the limit", name, err)
		}
	}
	ok := map[string]string{
		"json":     `{"n":10,"edges":[[0,9]]}`,
		"edgelist": "10\n0 9\n",
		"dimacs":   "p edge 10 1\ne 1 10\n",
	}
	for name, input := range ok {
		if _, err := ReadLimited(strings.NewReader(input), FormatAuto, 10, 0); err != nil {
			t.Fatalf("%s at the limit rejected: %v", name, err)
		}
	}

	overEdges := map[string]string{
		"json edges":        `{"n":4,"edges":[[0,1],[1,2],[2,3]]}`,
		"edgelist edges":    "0 1\n1 2\n2 3\n",
		"dimacs declared m": "p edge 4 3\n",
		"dimacs edge lines": "p edge 4 9\ne 1 2\ne 2 3\ne 3 4\n",
	}
	for name, input := range overEdges {
		if _, err := ReadLimited(strings.NewReader(input), FormatAuto, 0, 2); err == nil {
			t.Fatalf("%s: edge limit not enforced", name)
		} else if !strings.Contains(err.Error(), "limit") {
			t.Fatalf("%s: error %q does not mention the limit", name, err)
		}
	}
	okEdges := map[string]string{
		"json":     `{"n":3,"edges":[[0,1],[1,2]]}`,
		"edgelist": "0 1\n1 2\n",
		"dimacs":   "p edge 3 2\ne 1 2\ne 2 3\n",
	}
	for name, input := range okEdges {
		if _, err := ReadLimited(strings.NewReader(input), FormatAuto, 0, 2); err != nil {
			t.Fatalf("%s at the edge limit rejected: %v", name, err)
		}
	}
}

// TestReadFile covers the shared -in loader: file, stdin via "-", and
// name-prefixed errors.
func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path, FormatAuto)
	if err != nil || g.N() != 3 || g.M() != 2 {
		t.Fatalf("ReadFile: %v, %v", g, err)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing"), FormatAuto); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.edges")
	if err := os.WriteFile(bad, []byte("0 1\nx\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad, FormatAuto); err == nil || !strings.Contains(err.Error(), "bad.edges") {
		t.Fatalf("error lacks the input name: %v", err)
	}
}

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]Format{
		"auto": FormatAuto, "": FormatAuto, "json": FormatJSON,
		"edgelist": FormatEdgeList, "DIMACS": FormatDIMACS,
	} {
		got, err := ParseFormat(name)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat(xml): want error")
	}
}

// JSON edges go through graph.CSRFromEdgesChecked, whose own tests pin
// it to AddEdgeChecked: the JSON front door gives graph.FromEdges' CSR,
// or its error behind the "graphio: json: " prefix, on lists whose
// errors compete for first place.
func TestJSONEdgesMatchFromEdges(t *testing.T) {
	lists := [][][2]int{
		nil,
		{{0, 1}, {1, 2}, {2, 0}},
		{{0, 1}, {1, 0}},                 // reversed duplicate
		{{0, 1}, {1, 2}, {2, 1}, {1, 0}}, // first duplicate wins
		{{0, 1}, {0, 1}, {0, 5}},         // duplicate before range
		{{0, 1}, {0, 5}, {0, 1}},         // range before duplicate
		{{0, 1}, {1, 1}, {1, 0}},         // loop before duplicate
		{{0, 1}, {1, 0}, {2, 2}},         // duplicate before loop
		{{-1, 0}},
		{{3, 0}},
	}
	for i, edges := range lists {
		want, wantErr := graph.FromEdges(3, edges)
		data, err := json.Marshal(map[string]any{"n": 3, "edges": edges})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseCSR(data, FormatJSON, CSROptions{})
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != "graphio: json: "+wantErr.Error() {
				t.Fatalf("list %d: ParseCSR error %v, want FromEdges' %v", i, err, wantErr)
			}
		case err != nil:
			t.Fatalf("list %d: rejected (%v), FromEdges accepts", i, err)
		case !slices.Equal(got.Offsets, want.Freeze().Offsets) || !slices.Equal(got.Targets, want.Freeze().Targets):
			t.Fatalf("list %d: CSR differs from FromEdges(...).Freeze()", i)
		}
	}
}

// Only whitespace may follow a JSON document.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	for _, input := range []string{
		`{"n":2,"edges":[[0,1]]}{"n":9}`,
		`{"n": 2, "edges": [[0, 1]]} trailing`,
		`{"n":2} ,`,
		"{\"n\":2}\n\n}",
	} {
		if _, err := Read(strings.NewReader(input), FormatJSON); err == nil ||
			!strings.Contains(err.Error(), "after the document") {
			t.Fatalf("Read(%q) = %v, want a trailing-data error", input, err)
		}
		if _, err := ParseCSR([]byte(input), FormatAuto, CSROptions{}); err == nil {
			t.Fatalf("ParseCSR(%q) accepted trailing data", input)
		}
	}
	g, err := Read(strings.NewReader("{\"n\":2,\"edges\":[[0,1]]} \r\n\t\n"), FormatJSON)
	if err != nil || g.M() != 1 {
		t.Fatalf("trailing whitespace: %v, %v", g, err)
	}
}
