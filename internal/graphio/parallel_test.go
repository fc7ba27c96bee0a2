package graphio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// genEdgeListText renders a random messy edge list (comments, blank lines,
// optional header) and returns it with the reference reader's parse.
func genEdgeListText(t *testing.T, seed int64, lines int, header bool) (string, *graph.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 200 + rng.Intn(200)
	var b strings.Builder
	b.WriteString("# generated test input\n")
	if header {
		fmt.Fprintf(&b, "%d\n", n)
	}
	for i := 0; i < lines; i++ {
		switch rng.Intn(12) {
		case 0:
			b.WriteString("\n")
		case 1:
			b.WriteString("% a comment line\n")
		case 2:
			fmt.Fprintf(&b, "%d %d # trailing comment\n", rng.Intn(n), rng.Intn(n))
		case 3:
			fmt.Fprintf(&b, "  %d\t%d  \n", rng.Intn(n), rng.Intn(n))
		default:
			fmt.Fprintf(&b, "%d %d\n", rng.Intn(n), rng.Intn(n))
		}
	}
	text := b.String()
	g, err := referenceRead([]byte(text), FormatEdgeList, 0, 0)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	return text, g.Freeze()
}

// genDIMACSText renders a random DIMACS file with the reference parse.
func genDIMACSText(t *testing.T, seed int64, lines int) (string, *graph.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 150 + rng.Intn(150)
	var b strings.Builder
	b.WriteString("c generated test input\nc another comment\n")
	fmt.Fprintf(&b, "p edge %d %d\n", n, lines)
	for i := 0; i < lines; i++ {
		if rng.Intn(10) == 0 {
			b.WriteString("c interleaved comment\n")
		}
		fmt.Fprintf(&b, "e %d %d\n", rng.Intn(n)+1, rng.Intn(n)+1)
	}
	text := b.String()
	g, err := referenceRead([]byte(text), FormatDIMACS, 0, 0)
	if err != nil {
		t.Fatalf("reference parse: %v", err)
	}
	return text, g.Freeze()
}

// Parallel parse determinism: the same graph, with byte-identical
// fingerprint, at every worker count — and equal to the reference
// reader's graph, frozen. minChunkBytes would keep these small inputs in
// one chunk, so the inputs are padded past it by comment lines.
func TestParseCSRWorkerCountInvariance(t *testing.T) {
	pad := strings.Repeat("# padding to push the input well past one chunk\n", 3000)
	cases := []struct {
		name   string
		format Format
	}{
		{"edgelist-header", FormatEdgeList},
		{"edgelist-noheader", FormatEdgeList},
		{"dimacs", FormatDIMACS},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var text string
			var want *graph.CSR
			switch tc.name {
			case "edgelist-header":
				text, want = genEdgeListText(t, int64(ci)+1, 4000, true)
				text = pad + text
			case "edgelist-noheader":
				text, want = genEdgeListText(t, int64(ci)+2, 4000, false)
				text = pad + text
			default:
				text, want = genDIMACSText(t, int64(ci)+3, 4000)
				text = strings.Repeat("c padding to push the input well past one chunk\n", 3000) + text
			}
			ref, err := referenceRead([]byte(text), tc.format, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want = ref.Freeze()
			for _, w := range []int{0, 1, 2, 4, 8} {
				got, err := ParseCSR([]byte(text), tc.format, CSROptions{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got.Fingerprint() != want.Fingerprint() {
					t.Fatalf("workers=%d: fingerprint %s != reference %s",
						w, got.Fingerprint(), want.Fingerprint())
				}
			}
		})
	}
}

// ParseCSR reports the reference reader's first error, string for string,
// at every worker count: chunk results merge in input order, and an edge
// cap crossed before a chunk's error is located by rescanning the one
// chunk where the running count crosses it.
func TestParseCSRErrorsMatchSequential(t *testing.T) {
	pad := strings.Repeat("0 1\n", 40000) // multiple chunks of valid edges
	epad := strings.Repeat("e 1 2\n", 40000)
	cases := []struct {
		name                  string
		format                Format
		text                  string
		maxVertices, maxEdges int
	}{
		{name: "bad token late", format: FormatEdgeList, text: pad + "3 x\n" + pad},
		{name: "three fields", format: FormatEdgeList, text: pad + "1 2 3\n" + pad},
		{name: "negative vertex", format: FormatEdgeList, text: pad + "-4 1\n" + pad},
		{name: "out of declared range", format: FormatEdgeList, text: "9\n" + pad + "1 9\n" + pad},
		{name: "two errors keep first", format: FormatEdgeList, text: pad + "a b\n" + pad + "c d\n"},
		{name: "vertex over the cap", format: FormatEdgeList, text: pad + "7 70\n" + pad, maxVertices: 50},
		{name: "dimacs bad endpoint", format: FormatDIMACS, text: "p edge 2 1\n" + epad + "e 1 99\n"},
		{name: "dimacs duplicate p", format: FormatDIMACS, text: "p edge 2 1\n" + epad + "p edge 2 1\n"},
		{name: "dimacs unknown type", format: FormatDIMACS, text: "p edge 2 1\n" + epad + "q 1 2\n"},
		// Edge caps: the first edge line past the cap, unless a syntax
		// error comes first.
		{name: "cap in a late chunk", format: FormatEdgeList, text: pad + pad + pad, maxEdges: 100_003},
		{name: "cap on the first edge", format: FormatEdgeList, text: "# c\n\n  5 6\n" + pad, maxEdges: 1},
		{name: "cap at the last edge", format: FormatEdgeList, text: pad + pad, maxEdges: 79_999},
		{name: "cap line indented", format: FormatEdgeList,
			text: pad + strings.Repeat(" \t3 4 # c\n", 30000) + pad, maxEdges: 50_000},
		{name: "cap after header and comments", format: FormatEdgeList,
			text: "% x\n9\n" + strings.Repeat("0 1\n# c\n\n", 30000), maxEdges: 20_000},
		{name: "cap counts loops and duplicates", format: FormatEdgeList,
			text: strings.Repeat("2 2\n1 0\n0 1\n", 30000), maxEdges: 50_000},
		{name: "syntax error before the cap", format: FormatEdgeList, text: pad + "x y\n" + pad, maxEdges: 60_000},
		{name: "cap before a syntax error", format: FormatEdgeList, text: pad + "x y\n" + pad, maxEdges: 30_000},
		{name: "cap right before a syntax error", format: FormatEdgeList, text: pad + "x y\n" + pad, maxEdges: 40_000},
		{name: "dimacs cap", format: FormatDIMACS, text: "c x\np edge 2 1\n" + epad + "c y\n" + epad, maxEdges: 50_000},
		{name: "dimacs cap indented", format: FormatDIMACS,
			text: "p edge 5 0\n" + strings.Repeat("  e 1 5\n", 80000), maxEdges: 70_000},
		{name: "dimacs syntax error before the cap", format: FormatDIMACS,
			text: "p edge 2 1\n" + epad + "e 1\n" + epad, maxEdges: 50_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, wantErr := referenceRead([]byte(tc.text), tc.format, tc.maxVertices, tc.maxEdges)
			if wantErr == nil {
				t.Fatal("reference parse unexpectedly succeeded")
			}
			for _, w := range []int{0, 1, 2, 4, 8} {
				opt := CSROptions{Workers: w, MaxVertices: tc.maxVertices, MaxEdges: tc.maxEdges}
				_, err := ParseCSR([]byte(tc.text), tc.format, opt)
				if err == nil {
					t.Fatalf("workers=%d: parse unexpectedly succeeded", w)
				}
				if err.Error() != wantErr.Error() {
					t.Fatalf("workers=%d: error %q != reference %q", w, err, wantErr)
				}
			}
		})
	}
}

// The vertex and edge caps of mdsd's /v1/solve payloads (maxRequestVertices
// and maxRequestEdges in internal/service).
const (
	serviceMaxVertices = 2_000_000
	serviceMaxEdges    = 20_000_000
)

// The text payloads internal/service's request tests send, read at the
// service's caps, agree with the reference reader: the same graph and
// fingerprint, or the same error string, through ReadLimited and through
// ParseCSR at every worker count. FormatAuto payloads are resolved by
// Detect first, as both front doors do; the reference has no sniffing.
func TestServicePayloadsMatchReference(t *testing.T) {
	g, err := gen.FromKind("ding", 300, 5, 0, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var edges, dimacs bytes.Buffer
	if err := Write(&edges, g, FormatEdgeList); err != nil {
		t.Fatal(err)
	}
	if err := Write(&dimacs, g, FormatDIMACS); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		text   string
		format Format
	}{
		{edges.String(), FormatAuto},
		{edges.String(), FormatEdgeList},
		{dimacs.String(), FormatAuto},
		{dimacs.String(), FormatDIMACS},
		{"# comment\n% other\n\n5\n0 1\n1 2\r\n2 0 \n", FormatAuto}, // header, isolated vertices, CRLF
		{"0 1\n1 0\n0 1\n2 2\n", FormatAuto},                        // duplicates and a self-loop
		{"  \n\t0 1\n", FormatAuto},
		{"0 1\nx 2\n", FormatAuto},
		{"0 1 2\n", FormatAuto},
		{"-1 2\n", FormatEdgeList}, // Detect rejects the leading '-'
		{"3\n0 5\n", FormatAuto},
		{"0 1\n", FormatDIMACS},
		{"c hi\np edge 4 1\ne 1 4\n", FormatAuto},
		{"p edge 3 1\ne 0 1\n", FormatAuto},
		{"p edge 3 1\ne 1 4\n", FormatAuto},
		{"p edge 3 1\ne 1 2\ne 2 3\n", FormatAuto},
		{"p edge 3000000 0\n", FormatAuto},
		{"p edge 3 30000000\n", FormatAuto},
		{"p col 3 1\ne 1 2\n", FormatAuto},
		{"0 1\n1 2\n", FormatAuto},
		{"p edge 3 2\ne 1 2\ne 2 3\n", FormatDIMACS},
		{"0 1\n", FormatAuto},
		{"2000000001\n0 1\n", FormatAuto},
		// At and just past the caps.
		{"2000001\n0 1\n", FormatAuto},
		{"0 2000000\n", FormatAuto},
		{"1 0\n\n1999999 2000000 # x\n", FormatAuto},
		{"p edge 2000001 0\n", FormatAuto},
		{"p edge 3 20000000\ne 1 2\n", FormatAuto},
		{"p edge 3 20000001\r\ne 1 2\n", FormatAuto},
		{"p edge 3 1\r\ne 1 2\r\ne 2 4\r\n", FormatAuto},
	}
	for i, tc := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			f := tc.format
			if f == FormatAuto {
				if f, err = Detect([]byte(tc.text)); err != nil {
					t.Fatal(err)
				}
			}
			want, wantErr := referenceRead([]byte(tc.text), f, serviceMaxVertices, serviceMaxEdges)
			got, err := ReadLimited(strings.NewReader(tc.text), tc.format, serviceMaxVertices, serviceMaxEdges)
			sameOutcome(t, f, got, err, want, wantErr)
			for _, w := range []int{1, 2, 4, 8} {
				c, err := ParseCSR([]byte(tc.text), tc.format,
					CSROptions{Workers: w, MaxVertices: serviceMaxVertices, MaxEdges: serviceMaxEdges})
				var g *graph.Graph
				if err == nil {
					g = graph.FromCSR(c)
				}
				sameOutcome(t, f, g, err, want, wantErr)
				if err == nil && c.Fingerprint() != want.Freeze().Fingerprint() {
					t.Fatalf("workers=%d: fingerprint differs from the reference", w)
				}
			}
		})
	}
}

// ParseCSR handles the non-chunking formats through the same front door.
func TestParseCSROtherFormats(t *testing.T) {
	g := graph.FromEdgesUnchecked(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	want := g.Freeze()

	jsonText := []byte(`{"n":4,"edges":[[0,1],[1,2],[2,3]]}`)
	got, err := ParseCSR(jsonText, FormatJSON, CSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("json fingerprint mismatch")
	}

	var bin bytes.Buffer
	if err := Write(&bin, want, FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	got, err = ParseCSR(bin.Bytes(), FormatAuto, CSROptions{}) // magic sniff
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("csrbin fingerprint mismatch")
	}
}

// ParseCSR enforces the same limits as ReadLimited; text edge overflow
// is positioned at the first edge line past the cap.
func TestParseCSRLimits(t *testing.T) {
	if _, err := ParseCSR([]byte("1000001\n0 1\n"), FormatEdgeList, CSROptions{MaxVertices: 1_000_000}); err == nil {
		t.Fatal("vertex limit not enforced")
	}
	for _, tc := range []struct {
		text string
		f    Format
	}{
		{"0 1\n1 2\n 2 3\n", FormatEdgeList},
		{"p edge 4 2\ne 1 2\ne 2 3\n e 3 4\n", FormatDIMACS},
	} {
		_, err := ParseCSR([]byte(tc.text), tc.f, CSROptions{MaxEdges: 2})
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Col != 2 || pe.Msg != "edge count exceeds the limit 2" {
			t.Fatalf("%v edge limit: %v, want a *ParseError at column 2", tc.f, err)
		}
	}
	if _, err := ParseCSR([]byte("p edge 4 3\n"), FormatDIMACS, CSROptions{MaxEdges: 2}); err == nil {
		t.Fatal("declared edge limit not enforced")
	}
	if _, err := ParseCSR([]byte("0 1\n1 2\n"), FormatEdgeList, CSROptions{MaxEdges: 2}); err != nil {
		t.Fatalf("at the limit rejected: %v", err)
	}
}

// ParseCSRFile reads from disk with name-prefixed errors.
func TestParseCSRFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.edges"
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ParseCSRFile(path, FormatAuto, CSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 {
		t.Fatalf("n = %d, want 3", c.N())
	}
	bad := dir + "/bad.edges"
	if err := os.WriteFile(bad, []byte("0 x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCSRFile(bad, FormatEdgeList, CSROptions{}); err == nil ||
		!strings.Contains(err.Error(), "bad.edges") {
		t.Fatalf("error not name-prefixed: %v", err)
	}
	// csrbin streams through the same decoder ParseCSR runs in memory:
	// the same CSR, and the same error on a truncated file.
	want := graph.FromEdgesUnchecked(5, [][2]int{{0, 1}, {1, 2}, {3, 4}}).Freeze()
	bin := encodeCSRBin(t, want)
	binPath := dir + "/g.csrbin"
	if err := os.WriteFile(binPath, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatAuto, FormatCSRBin} {
		c, err := ParseCSRFile(binPath, f, CSROptions{})
		if err != nil || c.Fingerprint() != want.Fingerprint() {
			t.Fatalf("csrbin (%v): %v", f, err)
		}
	}
	short := dir + "/short.csrbin"
	if err := os.WriteFile(short, bin[:len(bin)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, wantErr := ParseCSR(bin[:len(bin)-3], FormatAuto, CSROptions{})
	var fe *FormatError
	if _, err := ParseCSRFile(short, FormatAuto, CSROptions{}); !errors.As(err, &fe) ||
		err.Error() != short+": "+wantErr.Error() {
		t.Fatalf("truncated csrbin: %v, want %q", err, wantErr)
	}
}

// BenchmarkParseCSR times ParseCSR at the zero CSROptions (one chunk in
// the calling goroutine), one row per format.
// The reversed star K_{1,m} lists its edges by descending leaf, so each
// edge lands at the front of the centre's sorted row: the worst case for
// an insertion-sorted adjacency build.
func BenchmarkParseCSR(b *testing.B) {
	m := 100_000
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{0, m - i}
	}
	var js bytes.Buffer
	fmt.Fprintf(&js, `{"n":%d,"edges":[`, m+1)
	for i, e := range edges {
		if i > 0 {
			js.WriteByte(',')
		}
		fmt.Fprintf(&js, "[%d,%d]", e[0], e[1])
	}
	js.WriteString("]}")
	var el, dm bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&el, "%d %d\n", e[0], e[1])
	}
	fmt.Fprintf(&dm, "p edge %d %d\n", m+1, m)
	for _, e := range edges {
		fmt.Fprintf(&dm, "e %d %d\n", e[0]+1, e[1]+1)
	}
	rows := []struct {
		name string
		f    Format
		data []byte
	}{
		{"json/reversed-star-100k", FormatJSON, js.Bytes()},
		{"edgelist/reversed-star-100k", FormatEdgeList, el.Bytes()},
		{"dimacs/reversed-star-100k", FormatDIMACS, dm.Bytes()},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(int64(len(r.data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ParseCSR(r.data, r.f, CSROptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadKeepsParsedCSR checks that ReadFile and ReadLimited hand back a
// graph that freezes to the input's CSR, also after a Clone, and that the read buffer sized from the
// input length parses inputs around the format sniff's 512 bytes and the
// 64 KiB cap exactly as before: every format, from a file and from
// readers with and without a Len method.
func TestReadKeepsParsedCSR(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	graphs := []*graph.Graph{
		graph.New(1),
		gen.Path(3),
		gen.Grid(6, 6),
		gen.RandomTree(60, rng),
		gen.Grid(90, 90),
	}
	for i, g := range graphs {
		want := g.Freeze()
		for _, f := range []Format{FormatEdgeList, FormatDIMACS, FormatJSON, FormatCSRBin} {
			var buf bytes.Buffer
			if err := Write(&buf, want, f); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			path := fmt.Sprintf("%s/g%d-%v", dir, i, f)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			fromFile, err := ReadFile(path, FormatAuto)
			if err != nil {
				t.Fatalf("graph %d %v (%d bytes): ReadFile: %v", i, f, len(data), err)
			}
			fromLen, err := ReadLimited(bytes.NewReader(data), FormatAuto, 0, 0)
			if err != nil {
				t.Fatalf("graph %d %v: ReadLimited(bytes.Reader): %v", i, f, err)
			}
			fromStream, err := ReadLimited(io.MultiReader(bytes.NewReader(data)), FormatAuto, 0, 0)
			if err != nil {
				t.Fatalf("graph %d %v: ReadLimited(stream): %v", i, f, err)
			}
			for name, got := range map[string]*graph.Graph{"ReadFile": fromFile, "bytes.Reader": fromLen, "stream": fromStream} {
				c := got.Freeze()
				if !slices.Equal(c.Offsets, want.Offsets) || !slices.Equal(c.Targets, want.Targets) {
					t.Fatalf("graph %d %v %s: frozen view differs from the input's CSR", i, f, name)
				}
				if rebuilt := got.Clone().Freeze(); !slices.Equal(rebuilt.Targets, c.Targets) || !slices.Equal(rebuilt.Offsets, c.Offsets) {
					t.Fatalf("graph %d %v %s: adjacency lists freeze to another CSR", i, f, name)
				}
			}
		}
	}
	for _, size := range []int{0, 1, 511, 512, 513, 64<<10 - 1, 64 << 10, 1 << 20} {
		if got := readBufSize(size); got < 512 || got > 64<<10 || (size >= 512 && size < 64<<10 && got != size) {
			t.Errorf("readBufSize(%d) = %d", size, got)
		}
	}
}
