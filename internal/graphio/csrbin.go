package graphio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math"
	"os"

	"localmds/internal/graph"
)

// The csrbin format is the repository's zero-parse on-disk graph encoding:
// a frozen graph.CSR written verbatim as little-endian arrays behind a
// fixed 64-byte header, so a loader can mmap the file and serve the
// Offsets/Targets slices straight out of the page cache without copying,
// parsing, or allocating anything proportional to the graph.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	     0     8  magic 89 43 53 52 42 0D 0A 1A ("\x89CSRB\r\n\x1a"; the
//	              PNG-style prefix catches text-mode and truncation damage)
//	     8     4  version (currently 1)
//	    12     4  flags (must be 0)
//	    16     8  n — vertex count
//	    24     8  m — edge count; the Targets array holds 2m arcs
//	    32     8  CRC-64/ECMA of the Offsets bytes followed by the Targets
//	              bytes, exactly as they appear on disk
//	    40    20  reserved, must be zero
//	    60     4  IEEE CRC-32 of header bytes [0, 60)
//	    64  (n+1)*4  Offsets, int32
//	     …   2m*4  Targets, int32
//
// A file is canonical iff every row is strictly ascending (sorted, no
// duplicates, no self-loops) and the arc relation is symmetric — i.e. the
// arrays are exactly what graph.Graph.Freeze or graph.CSRFromEdges
// produce. ReadCSRBin enforces all of that plus both checksums, so an
// accepted stream re-encodes byte-identically; OpenCSRBin trusts the data
// arrays by default (that is the point of the format) and verifies them
// only on request.

// csrbinMagic is the 8-byte file signature.
var csrbinMagic = [8]byte{0x89, 'C', 'S', 'R', 'B', '\r', '\n', 0x1a}

const (
	csrbinVersion   = 1
	csrbinHeaderLen = 64
	// csrbinMaxCount bounds n and 2m: the CSR substrate stores arcs as
	// int32, and n+1 offsets must fit a slice length.
	csrbinMaxCount = math.MaxInt32 - 1
)

// csrbinCRCTable is the CRC-64/ECMA table for the data checksum.
var csrbinCRCTable = crc64.MakeTable(crc64.ECMA)

// FormatError locates a structural or integrity error in a binary graph
// file, the csrbin counterpart of the text formats' *ParseError. Offset is
// the byte position of the offending field (0 for whole-file problems such
// as a bad magic); the taxonomy is deterministic: a given corrupt input
// always yields the same error.
type FormatError struct {
	Offset int64
	Msg    string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("csrbin: byte %d: %s", e.Offset, e.Msg)
}

func formatErrf(offset int64, format string, args ...any) *FormatError {
	return &FormatError{Offset: offset, Msg: fmt.Sprintf(format, args...)}
}

// csrbinHeader is the decoded fixed header.
type csrbinHeader struct {
	n       int
	arcs    int // 2m
	dataCRC uint64
}

// parseCSRBinHeader validates the 64 header bytes against the format spec
// and the caller's limits. maxVertices/maxEdges <= 0 mean unlimited.
func parseCSRBinHeader(hdr []byte, maxVertices, maxEdges int) (csrbinHeader, error) {
	var h csrbinHeader
	if !bytes.Equal(hdr[:8], csrbinMagic[:]) {
		return h, formatErrf(0, "bad magic %x (want %x)", hdr[:8], csrbinMagic[:])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != csrbinVersion {
		return h, formatErrf(8, "unsupported version %d (want %d)", v, csrbinVersion)
	}
	if f := binary.LittleEndian.Uint32(hdr[12:]); f != 0 {
		return h, formatErrf(12, "unknown flags %#x (must be 0)", f)
	}
	if sum := crc32.ChecksumIEEE(hdr[:60]); sum != binary.LittleEndian.Uint32(hdr[60:]) {
		return h, formatErrf(60, "header checksum mismatch (want %#x, got %#x)",
			binary.LittleEndian.Uint32(hdr[60:]), sum)
	}
	for i, b := range hdr[40:60] {
		if b != 0 {
			return h, formatErrf(int64(40+i), "reserved header byte %d is nonzero", 40+i)
		}
	}
	n := binary.LittleEndian.Uint64(hdr[16:])
	m := binary.LittleEndian.Uint64(hdr[24:])
	if n > csrbinMaxCount {
		return h, formatErrf(16, "vertex count %d overflows the int32 CSR substrate", n)
	}
	if m > csrbinMaxCount/2 {
		return h, formatErrf(24, "edge count %d overflows the int32 CSR substrate", m)
	}
	if maxVertices > 0 && n > uint64(maxVertices) {
		return h, formatErrf(16, "vertex count %d exceeds the limit %d", n, maxVertices)
	}
	if maxEdges > 0 && m > uint64(maxEdges) {
		return h, formatErrf(24, "edge count %d exceeds the limit %d", m, maxEdges)
	}
	h.n = int(n)
	h.arcs = int(2 * m)
	h.dataCRC = binary.LittleEndian.Uint64(hdr[32:])
	return h, nil
}

// validateCSRArrays checks the canonical-form invariants shared by the
// streaming reader and OpenCSRBin's Verify mode: offsets monotone from 0
// to 2m, every row strictly ascending with in-range targets, no
// self-loops, and a symmetric arc relation.
func validateCSRArrays(offsets, targets []int32) error {
	n := len(offsets) - 1
	base := int64(csrbinHeaderLen)
	if offsets[0] != 0 {
		return formatErrf(base, "offsets[0] = %d (want 0)", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return formatErrf(base+int64(v+1)*4, "offsets not monotone at vertex %d (%d < %d)",
				v, offsets[v+1], offsets[v])
		}
	}
	if int(offsets[n]) != len(targets) {
		return formatErrf(base+int64(n)*4, "offsets[%d] = %d does not match the arc count %d",
			n, offsets[n], len(targets))
	}
	tbase := base + int64(n+1)*4
	for v := 0; v < n; v++ {
		row := targets[offsets[v]:offsets[v+1]]
		prev := int32(-1)
		for i, u := range row {
			at := tbase + int64(offsets[v])*4 + int64(i)*4
			if u < 0 || int(u) >= n {
				return formatErrf(at, "vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return formatErrf(at, "self-loop at vertex %d", v)
			}
			if u <= prev {
				return formatErrf(at, "row of vertex %d not strictly ascending at position %d", v, i)
			}
			prev = u
			if !rowContains(targets[offsets[u]:offsets[u+1]], int32(v)) {
				return formatErrf(at, "asymmetric arc %d->%d", v, u)
			}
		}
	}
	return nil
}

// rowContains binary-searches a sorted row for x.
func rowContains(row []int32, x int32) bool {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == x
}

// readCSRBin is the streaming csrbin reader: it decodes and fully
// validates the file (header, both checksums, canonical-form arrays, no
// trailing bytes) from any io.Reader. It allocates nothing proportional to
// the declared counts until they have passed the limits.
func readCSRBin(r io.Reader, maxVertices, maxEdges int) (*graph.CSR, error) {
	hdr := make([]byte, csrbinHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, formatErrf(0, "truncated header: %v", err)
	}
	h, err := parseCSRBinHeader(hdr, maxVertices, maxEdges)
	if err != nil {
		return nil, err
	}
	crc := uint64(0)
	offsets, crc, err := readInt32s(r, h.n+1, csrbinHeaderLen, crc)
	if err != nil {
		return nil, err
	}
	targets, crc, err := readInt32s(r, h.arcs, csrbinHeaderLen+int64(h.n+1)*4, crc)
	if err != nil {
		return nil, err
	}
	if crc != h.dataCRC {
		return nil, formatErrf(32, "data checksum mismatch (header says %#x, arrays sum to %#x)", h.dataCRC, crc)
	}
	var one [1]byte
	if k, _ := r.Read(one[:]); k != 0 {
		return nil, formatErrf(csrbinHeaderLen+int64(h.n+1)*4+int64(h.arcs)*4, "trailing data after the CSR arrays")
	}
	if err := validateCSRArrays(offsets, targets); err != nil {
		return nil, err
	}
	return &graph.CSR{Offsets: offsets, Targets: targets}, nil
}

// readInt32s decodes count little-endian int32 values, folding the raw
// bytes into the running CRC-64. base is the stream offset of the first
// value, used for truncation errors.
func readInt32s(r io.Reader, count int, base int64, crc uint64) ([]int32, uint64, error) {
	out := make([]int32, count)
	buf := make([]byte, 64<<10)
	done := 0
	for done < count {
		k := min(count-done, len(buf)/4)
		chunk := buf[:k*4]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, crc, formatErrf(base+int64(done)*4,
				"truncated: %d of %d values present (%v)", done, count, err)
		}
		crc = crc64.Update(crc, csrbinCRCTable, chunk)
		for i := 0; i < k; i++ {
			out[done+i] = int32(binary.LittleEndian.Uint32(chunk[i*4:]))
		}
		done += k
	}
	return out, crc, nil
}

// writeCSRBin writes the canonical csrbin encoding of c, for Write. The
// CSR must be in canonical form (every Freeze/CSRFromEdges result is);
// the writer computes both checksums and never reorders the arrays.
func writeCSRBin(w io.Writer, c *graph.CSR) error {
	n := c.N()
	arcs := len(c.Targets)
	if n > csrbinMaxCount || arcs > csrbinMaxCount {
		return fmt.Errorf("graphio: csrbin: graph too large (n=%d, arcs=%d)", n, arcs)
	}
	if arcs%2 != 0 {
		return fmt.Errorf("graphio: csrbin: odd arc count %d (CSR not symmetric?)", arcs)
	}
	buf := make([]byte, 64<<10)
	crc := uint64(0)
	sum := func(xs []int32) {
		for len(xs) > 0 {
			k := min(len(xs), len(buf)/4)
			for i := 0; i < k; i++ {
				binary.LittleEndian.PutUint32(buf[i*4:], uint32(xs[i]))
			}
			crc = crc64.Update(crc, csrbinCRCTable, buf[:k*4])
			xs = xs[k:]
		}
	}
	sum(c.Offsets)
	sum(c.Targets)

	hdr := make([]byte, csrbinHeaderLen)
	copy(hdr, csrbinMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], csrbinVersion)
	binary.LittleEndian.PutUint32(hdr[12:], 0)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(arcs/2))
	binary.LittleEndian.PutUint64(hdr[32:], crc)
	binary.LittleEndian.PutUint32(hdr[60:], crc32.ChecksumIEEE(hdr[:60]))

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	emit := func(xs []int32) error {
		for len(xs) > 0 {
			k := min(len(xs), len(buf)/4)
			for i := 0; i < k; i++ {
				binary.LittleEndian.PutUint32(buf[i*4:], uint32(xs[i]))
			}
			if _, err := bw.Write(buf[:k*4]); err != nil {
				return err
			}
			xs = xs[k:]
		}
		return nil
	}
	if err := emit(c.Offsets); err != nil {
		return err
	}
	if err := emit(c.Targets); err != nil {
		return err
	}
	return bw.Flush()
}

// OpenOptions tune OpenCSRBin.
type OpenOptions struct {
	// MaxVertices and MaxEdges bound the declared counts (<= 0 means
	// unlimited), rejecting oversized headers before anything
	// proportional to them is mapped or allocated.
	MaxVertices int
	MaxEdges    int
	// Verify runs the full O(n + m) canonical-form validation and data
	// checksum over the mapped arrays. Off by default: the point of the
	// mmap path is a load whose cost is independent of the graph, and
	// the header checksum plus the exact-size check already catch
	// truncation and header damage.
	Verify bool
}

// MappedCSR is a loaded csrbin graph: a read-only CSR view that may be
// backed by an mmap'd file. Callers must not modify the arrays and must
// keep the MappedCSR alive (and unclosed) while the CSR view is in use;
// Close unmaps the memory.
type MappedCSR struct {
	// CSR is the graph view. When Mapped is true its arrays alias the
	// page cache directly — loading cost no parse, no copy, and no
	// allocation proportional to the graph.
	CSR graph.CSR
	// Mapped reports whether the arrays are mmap-backed (true only on
	// platforms with mmap support; elsewhere the loader falls back to a
	// validating streaming read into fresh slices).
	Mapped bool
	unmap  func() error
}

// Close releases the mapping, if any. The CSR view is invalid afterwards.
func (m *MappedCSR) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	m.CSR = graph.CSR{}
	return u()
}

// LoadCSR loads the graph at path ("-" reads stdin) as a frozen CSR, the
// one file loader behind the CLIs that solve on the CSR. A csrbin file (f
// is FormatCSRBin, or FormatAuto and the file's first byte is the csrbin
// magic's; the file name plays no part) is opened with OpenCSRBin in
// Verify mode, so it is mmap'd where the platform allows and its data
// checksum and canonical form are checked before a solver reads it; m is
// then its MappedCSR, c is &m.CSR, and the caller must keep m open until
// the last use of c and close it afterwards. Any other input, stdin
// included, is parsed with ParseCSRFile under opt and comes back with m
// nil. Errors in the data name the input, as ParseCSRFile's do.
func LoadCSR(path string, f Format, opt CSROptions) (c *graph.CSR, m *MappedCSR, err error) {
	if !sniffCSRBin(path, f) {
		c, err = ParseCSRFile(path, f, opt)
		return c, nil, err
	}
	m, err = OpenCSRBin(path, OpenOptions{MaxVertices: opt.MaxVertices, MaxEdges: opt.MaxEdges, Verify: true})
	var fe *FormatError
	if errors.As(err, &fe) {
		err = fmt.Errorf("%s: %w", path, err)
	}
	if err != nil {
		return nil, nil, err
	}
	return &m.CSR, m, nil
}

// sniffCSRBin reports whether LoadCSR should open path with OpenCSRBin: f
// is FormatCSRBin, or FormatAuto and the file's first byte is the csrbin
// magic's, as Detect sniffs it. Stdin ("-") cannot be mapped and always
// reports false.
func sniffCSRBin(path string, f Format) bool {
	switch {
	case path == "-":
		return false
	case f != FormatAuto:
		return f == FormatCSRBin
	}
	file, err := os.Open(path)
	if err != nil {
		return false
	}
	defer file.Close()
	var b [1]byte
	if _, err := io.ReadFull(file, b[:]); err != nil {
		return false
	}
	detected, err := Detect(b[:])
	return err == nil && detected == FormatCSRBin
}

// OpenCSRBin opens a csrbin file as a read-only CSR view without copying:
// on platforms with mmap support (and a little-endian int32 layout) the
// Offsets/Targets arrays are served straight from the mapping, making the
// load time independent of the graph size. The header is always validated
// (magic, version, checksum, limits) and the file size must match the
// declared counts exactly; pass OpenOptions.Verify to additionally check
// the data checksum and canonical-form invariants. On platforms without
// mmap the loader falls back to the fully-validating streaming reader.
func OpenCSRBin(path string, opt OpenOptions) (*MappedCSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, csrbinHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, formatErrf(0, "truncated header: %v", err)
	}
	h, err := parseCSRBinHeader(hdr, opt.MaxVertices, opt.MaxEdges)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	want := int64(csrbinHeaderLen) + int64(h.n+1)*4 + int64(h.arcs)*4
	if st.Size() != want {
		return nil, formatErrf(st.Size(), "file size %d does not match the header (want %d)", st.Size(), want)
	}
	if !mmapSupported || binary.NativeEndian.Uint32([]byte{1, 2, 3, 4}) != 0x04030201 {
		// No zero-copy path here: stream-read with full validation.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		csr, err := readCSRBin(bufio.NewReaderSize(f, 1<<20), opt.MaxVertices, opt.MaxEdges)
		if err != nil {
			return nil, err
		}
		return &MappedCSR{CSR: *csr}, nil
	}
	data, unmap, err := mapFile(f, want)
	if err != nil {
		return nil, fmt.Errorf("graphio: csrbin: mmap %s: %w", path, err)
	}
	offsets, targets := csrViewsOf(data, h.n, h.arcs)
	m := &MappedCSR{CSR: graph.CSR{Offsets: offsets, Targets: targets}, Mapped: true, unmap: unmap}
	if opt.Verify {
		if err := verifyMapped(data, h, offsets, targets); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// verifyMapped runs the Verify-mode checks over an established mapping.
func verifyMapped(data []byte, h csrbinHeader, offsets, targets []int32) error {
	if crc := crc64.Checksum(data[csrbinHeaderLen:], csrbinCRCTable); crc != h.dataCRC {
		return formatErrf(32, "data checksum mismatch (header says %#x, arrays sum to %#x)", h.dataCRC, crc)
	}
	return validateCSRArrays(offsets, targets)
}
