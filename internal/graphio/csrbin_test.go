package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"localmds/internal/graph"
)

// encodeCSRBin is the test helper: Write(FormatCSRBin) into memory.
func encodeCSRBin(t *testing.T, c *graph.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c, FormatCSRBin); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// rehdr recomputes the header CRC after a test mutates header bytes, so
// the mutation under test is reached instead of tripping the header
// checksum first.
func rehdr(b []byte) {
	binary.LittleEndian.PutUint32(b[60:], crc32.ChecksumIEEE(b[:60]))
}

// Property: text parse → csrbin → ReadCSRBin reproduces the frozen CSR
// bit-identically, whatever the graph.
func TestCSRBinRoundTrip(t *testing.T) {
	f := func(seed int64, rawN uint8, rawM uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%64) + 1
		edges := make([][2]int, int(rawM%256))
		for i := range edges {
			edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		want := graph.FromEdgesUnchecked(n, edges).Freeze()
		var buf bytes.Buffer
		if err := Write(&buf, want, FormatCSRBin); err != nil {
			return false
		}
		got, err := readCSRBin(bytes.NewReader(buf.Bytes()), 0, 0)
		if err != nil {
			return false
		}
		return got.Fingerprint() == want.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The Read front door dispatches csrbin explicitly and via the magic
// sniff, returning an equal graph either way.
func TestCSRBinReadAndDetect(t *testing.T) {
	g := graph.FromEdgesUnchecked(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}})
	data := encodeCSRBin(t, g.Freeze())

	if f, err := Detect(data); err != nil || f != FormatCSRBin {
		t.Fatalf("Detect = %v, %v; want csrbin", f, err)
	}
	for _, f := range []Format{FormatCSRBin, FormatAuto} {
		got, err := Read(bytes.NewReader(data), f)
		if err != nil {
			t.Fatalf("Read(%v): %v", f, err)
		}
		if !got.Equal(g) {
			t.Fatalf("Read(%v) changed the graph", f)
		}
	}
	if f, err := ParseFormat("csrbin"); err != nil || f != FormatCSRBin {
		t.Fatalf("ParseFormat(csrbin) = %v, %v", f, err)
	}
	if FormatCSRBin.String() != "csrbin" {
		t.Fatalf("String() = %q", FormatCSRBin.String())
	}
}

// corrupt applies a named mutation; every one must be rejected with a
// *FormatError whose offset and message are deterministic.
func TestCSRBinCorruptionTaxonomy(t *testing.T) {
	g := graph.FromEdgesUnchecked(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	base := encodeCSRBin(t, g.Freeze())

	cases := []struct {
		name    string
		mutate  func(b []byte) []byte
		wantSub string
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"bad version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 99)
			rehdr(b)
			return b
		}, "unsupported version"},
		{"unknown flags", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 7)
			rehdr(b)
			return b
		}, "unknown flags"},
		{"header checksum", func(b []byte) []byte { b[16] ^= 1; return b }, "header checksum mismatch"},
		{"reserved nonzero", func(b []byte) []byte {
			b[45] = 1
			rehdr(b)
			return b
		}, "reserved header byte"},
		{"truncated header", func(b []byte) []byte { return b[:40] }, "truncated header"},
		{"truncated arrays", func(b []byte) []byte { return b[:len(b)-3] }, "truncated"},
		{"trailing data", func(b []byte) []byte { return append(b, 0) }, "trailing data"},
		{"data corruption", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, "checksum mismatch"},
		{"overflowing n", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<40)
			rehdr(b)
			return b
		}, "overflows"},
		{"overflowing m", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], 1<<40)
			rehdr(b)
			return b
		}, "overflows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), base...))
			_, err := readCSRBin(bytes.NewReader(data), 0, 0)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %v", err)
			}
			if !strings.Contains(fe.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", fe.Error(), tc.wantSub)
			}
			// Determinism: the same corrupt input yields the same error.
			_, err2 := readCSRBin(bytes.NewReader(data), 0, 0)
			if err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("non-deterministic error: %v vs %v", err, err2)
			}
		})
	}
}

// Non-canonical arrays — valid header and checksums over bad content —
// must be rejected by the structural validation.
func TestCSRBinNonCanonicalArrays(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int32
		targets []int32
		wantSub string
	}{
		{"offsets not starting at 0", []int32{1, 2, 2}, []int32{1, 0}, "offsets[0]"},
		{"offsets not monotone", []int32{0, 2, 1}, []int32{1, 0}, "not monotone"},
		{"offsets end mismatch", []int32{0, 1, 1}, []int32{1, 0}, "does not match the arc count"},
		{"target out of range", []int32{0, 1, 2}, []int32{5, 0}, "out-of-range neighbor"},
		{"self-loop", []int32{0, 1, 2}, []int32{0, 0}, "self-loop"},
		{"row not sorted", []int32{0, 2, 2, 4}, []int32{2, 1, 0, 0}, "not strictly ascending"},
		{"asymmetric arc", []int32{0, 1, 2, 2}, []int32{1, 2}, "asymmetric arc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The writer trusts its input arrays beyond basic size checks,
			// so encoding a forged CSR yields a well-framed file with
			// valid checksums over non-canonical content — exactly what
			// the structural validation must catch.
			c := &graph.CSR{Offsets: tc.offsets, Targets: tc.targets}
			var buf bytes.Buffer
			if err := Write(&buf, c, FormatCSRBin); err != nil {
				t.Fatalf("Write: %v", err)
			}
			_, err := readCSRBin(bytes.NewReader(buf.Bytes()), 0, 0)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %v", err)
			}
			if !strings.Contains(fe.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", fe.Error(), tc.wantSub)
			}
		})
	}
}

// The reader's limits bound the declared counts before allocation.
func TestCSRBinLimits(t *testing.T) {
	g := graph.FromEdgesUnchecked(10, [][2]int{{0, 1}, {2, 3}, {4, 5}})
	data := encodeCSRBin(t, g.Freeze())
	if _, err := readCSRBin(bytes.NewReader(data), 5, 0); err == nil ||
		!strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("vertex limit not enforced: %v", err)
	}
	if _, err := readCSRBin(bytes.NewReader(data), 0, 2); err == nil ||
		!strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("edge limit not enforced: %v", err)
	}
	if _, err := readCSRBin(bytes.NewReader(data), 10, 3); err != nil {
		t.Fatalf("at the limits rejected: %v", err)
	}
}

// OpenCSRBin serves the same graph as the streaming reader, zero-copy
// where the platform supports it, and Verify catches data corruption that
// the fast path deliberately skips.
func TestOpenCSRBin(t *testing.T) {
	g := graph.FromEdgesUnchecked(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}})
	want := g.Freeze()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csrbin")
	if err := WriteFile(path, want, FormatCSRBin); err != nil {
		t.Fatal(err)
	}

	m, err := OpenCSRBin(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CSR.Fingerprint() != want.Fingerprint() {
		t.Fatal("mapped CSR differs from the written one")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}

	m, err = OpenCSRBin(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatalf("Verify on a good file: %v", err)
	}
	m.Close()

	// Limits apply at open time.
	if _, err := OpenCSRBin(path, OpenOptions{MaxVertices: 3}); err == nil {
		t.Fatal("vertex limit not enforced by OpenCSRBin")
	}
	if _, err := OpenCSRBin(path, OpenOptions{MaxEdges: 2}); err == nil {
		t.Fatal("edge limit not enforced by OpenCSRBin")
	}

	// A size mismatch (truncation past the header) fails without Verify.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.csrbin")
	if err := os.WriteFile(short, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCSRBin(short, OpenOptions{}); err == nil {
		t.Fatal("size mismatch not detected")
	}

	// Flipped payload bytes pass the fast open but fail Verify.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 1
	badPath := filepath.Join(dir, "bad.csrbin")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCSRBin(badPath, OpenOptions{Verify: true}); err == nil {
		t.Fatal("Verify missed data corruption")
	}
}

// LoadCSR opens a csrbin file with OpenCSRBin when its first byte is the
// magic or the format is pinned, whatever the file is called, and parses
// every other input as text at the given width. A short csrbin, or one
// with a flipped data byte, fails with the input named, and the limits
// apply to both paths.
func TestLoadCSR(t *testing.T) {
	want := graph.FromEdgesUnchecked(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 6}, {6, 7}}).Freeze()
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.edges") // a csrbin named like text
	if err := WriteFile(bin, want, FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	text := filepath.Join(dir, "t.csrbin") // text named like a csrbin
	if err := os.WriteFile(text, []byte("0 1\n1 2\n2 3\n3 4\n5 6\n6 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path    string
		f       Format
		wantBin bool
	}{
		{bin, FormatAuto, true},
		{bin, FormatCSRBin, true},
		{text, FormatAuto, false},
		{text, FormatEdgeList, false},
	} {
		c, m, err := LoadCSR(tc.path, tc.f, CSROptions{Workers: 3})
		if err != nil {
			t.Fatalf("LoadCSR(%s, %v): %v", tc.path, tc.f, err)
		}
		if (m != nil) != tc.wantBin || (m != nil && c != &m.CSR) {
			t.Errorf("LoadCSR(%s, %v): MappedCSR %v, want one: %v", tc.path, tc.f, m, tc.wantBin)
		}
		if c.Fingerprint() != want.Fingerprint() {
			t.Errorf("LoadCSR(%s, %v) loaded another graph", tc.path, tc.f)
		}
		if m != nil {
			m.Close()
		}
		if _, _, err := LoadCSR(tc.path, tc.f, CSROptions{MaxVertices: 3}); err == nil {
			t.Errorf("LoadCSR(%s, %v): vertex limit not enforced", tc.path, tc.f)
		}
	}

	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.csrbin")
	if err := os.WriteFile(short, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, _, err := LoadCSR(short, FormatAuto, CSROptions{}); !errors.As(err, &fe) ||
		!strings.HasPrefix(err.Error(), short+": ") {
		t.Fatalf("short csrbin: err = %v, want a *FormatError naming %s", err, short)
	}
	// One flipped data byte keeps the header valid; only the verifying
	// pass catches it.
	flipped := filepath.Join(dir, "flipped.csrbin")
	data[len(data)-5] ^= 0x10
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCSR(flipped, FormatAuto, CSROptions{}); !errors.As(err, &fe) ||
		!strings.HasPrefix(err.Error(), flipped+": ") {
		t.Fatalf("flipped csrbin: err = %v, want a *FormatError naming %s", err, flipped)
	}
}

// The empty graph round-trips through both readers.
func TestCSRBinEmptyGraph(t *testing.T) {
	want := graph.New(0).Freeze()
	data := encodeCSRBin(t, want)
	got, err := readCSRBin(bytes.NewReader(data), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 || len(got.Targets) != 0 {
		t.Fatalf("n=%d arcs=%d", got.N(), len(got.Targets))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.csrbin")
	if err := WriteFile(path, want, FormatCSRBin); err != nil {
		t.Fatal(err)
	}
	m, err := OpenCSRBin(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.CSR.N() != 0 {
		t.Fatalf("mapped empty graph has n=%d", m.CSR.N())
	}
}
