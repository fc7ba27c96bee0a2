package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"localmds/internal/graph"
)

// This file is the text parser behind every reader: ParseCSR takes the
// whole input as one byte slice, splits it into line-aligned chunks, and
// parses the chunks (concurrently through graph.ParallelFor when Workers
// is set), feeding the per-chunk edge buffers straight into
// graph.CSRFromEdgeChunks — no adjacency-list intermediate, no
// concatenating copy, and a hand-rolled digit parser instead of strconv
// per token. The result is deterministic by construction at any worker
// count: the chunking is a pure function of the input length and the
// worker count, CSRFromEdgeChunks depends only on the concatenated edge
// order, and chunk results are merged in input order, so the reported
// error is the first one a line-by-line reading would hit. The tests pin
// graphs and error strings to a streaming line-by-line reference reader
// at several worker counts.

// CSROptions tune ParseCSR.
type CSROptions struct {
	// Workers parses chunks concurrently on that many goroutines. Zero
	// parses one chunk in the calling goroutine (still through the same
	// chunk parser, so results are identical).
	Workers int
	// MaxVertices and MaxEdges bound the vertex and edge counts (0 =
	// unlimited), as ReadLimited documents. For the text formats, edge
	// overflow is a *ParseError at the first edge line past the cap.
	MaxVertices int
	MaxEdges    int
}

// ParseCSR parses a graph held entirely in memory into its frozen CSR
// view, in parallel for the line-oriented text formats (edge list,
// DIMACS). FormatAuto sniffs like Detect; JSON and csrbin inputs are
// decoded in the calling goroutine (csrbin is already binary, JSON
// grammar does not chunk on lines). The CSR is the same at every worker
// count.
func ParseCSR(data []byte, f Format, opt CSROptions) (*graph.CSR, error) {
	if f == FormatAuto {
		prefix := data
		if len(prefix) > 512 {
			prefix = prefix[:512]
		}
		var err error
		if f, err = Detect(prefix); err != nil {
			return nil, err
		}
	}
	switch f {
	case FormatJSON:
		return readJSON(data, opt.MaxVertices, opt.MaxEdges)
	case FormatCSRBin:
		return readCSRBin(bytes.NewReader(data), opt.MaxVertices, opt.MaxEdges)
	case FormatEdgeList:
		return parseEdgeListCSR(data, opt)
	case FormatDIMACS:
		return parseDIMACSCSR(data, opt)
	}
	return nil, fmt.Errorf("graphio: unsupported format %v", f)
}

// ParseCSRFile is ParseCSR over a file's contents ("-" reads stdin),
// prefixing errors with the input name. A csrbin input is decoded as it
// is read, never held whole.
func ParseCSRFile(path string, f Format, opt CSROptions) (*graph.CSR, error) {
	r, name, size := io.Reader(os.Stdin), "stdin", 0
	if path != "-" {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		if st, err := file.Stat(); err == nil {
			size = int(st.Size())
		}
		r, name = file, path
	}
	c, err := readCSR(r, size, f, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return c, nil
}

// readCSR parses the graph read from r, whose length is expected to be
// size bytes (0 if unknown; a reader with a Len method, such as
// bytes.Reader, reports its own). FormatAuto sniffs like Detect. csrbin
// is decoded as it streams in, allocating nothing proportional to its
// declared counts before they pass the limits; any other format is read
// to the end of r and handed to ParseCSR.
func readCSR(r io.Reader, size int, f Format, opt CSROptions) (*graph.CSR, error) {
	if l, ok := r.(interface{ Len() int }); ok && size == 0 {
		size = l.Len()
	}
	br := bufio.NewReaderSize(r, readBufSize(size))
	if f == FormatAuto {
		prefix, err := br.Peek(512)
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("graphio: detect: %w", err)
		}
		if f, err = Detect(prefix); err != nil {
			return nil, err
		}
	}
	if f == FormatCSRBin {
		return readCSRBin(br, opt.MaxVertices, opt.MaxEdges)
	}
	data, err := readAll(br, size)
	if err != nil {
		return nil, fmt.Errorf("graphio: read: %w", err)
	}
	return ParseCSR(data, f, opt)
}

// readBufSize sizes readCSR's buffer for an input of size bytes (0 if
// unknown): 64 KiB at most, and no larger than the input needs, so a
// small file or request body does not pay for zeroing 64 KiB. It never
// goes below 512 bytes, the format sniff's Peek.
func readBufSize(size int) int {
	const maxBuf = 64 << 10
	if size <= 0 || size >= maxBuf {
		return maxBuf
	}
	return max(size, 512)
}

// readAll reads r to the end into one buffer sized for size bytes, so a
// correct size hint costs a single allocation.
func readAll(r io.Reader, size int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// chunkSpan is one line-aligned byte range and its 1-based starting line.
type chunkSpan struct {
	lo, hi int
	line   int
}

// chunkTarget is how many line-aligned chunks to aim for per worker:
// more than one so an unlucky dense chunk cannot serialize the tail, few
// enough that per-chunk buffers stay large.
const chunkTarget = 4

// minChunkBytes keeps tiny inputs in a single chunk.
const minChunkBytes = 64 << 10

// splitChunks splits data[pos:] into at most count line-aligned chunks,
// recording each chunk's starting line number (the line containing
// data[pos] is line startLine). The split depends only on the input, never
// on scheduling.
func splitChunks(data []byte, pos, startLine, count int) []chunkSpan {
	rest := len(data) - pos
	if count < 1 {
		count = 1
	}
	if rest <= minChunkBytes || count == 1 {
		if rest == 0 {
			return nil
		}
		return []chunkSpan{{lo: pos, hi: len(data), line: startLine}}
	}
	size := rest / count
	if size < minChunkBytes {
		size = minChunkBytes
	}
	var spans []chunkSpan
	line := startLine
	for lo := pos; lo < len(data); {
		hi := lo + size
		if hi >= len(data) {
			hi = len(data)
		} else if nl := bytes.IndexByte(data[hi:], '\n'); nl >= 0 {
			hi += nl + 1
		} else {
			hi = len(data)
		}
		spans = append(spans, chunkSpan{lo: lo, hi: hi, line: line})
		line += bytes.Count(data[lo:hi], []byte{'\n'})
		lo = hi
	}
	return spans
}

// chunkResult is one chunk parser's output.
type chunkResult struct {
	edges [][2]int
	maxV  int // largest endpoint seen, -1 if none
	extra int // edge lines past the chunk's budget: counted, not stored
	// overLine and overCol locate the first edge line past the budget.
	overLine, overCol int
	err               *ParseError // the chunk's first error; parsing stops there
}

// count is the number of valid edge lines before the chunk's error (all
// of them if it has none).
func (r *chunkResult) count() int { return len(r.edges) + r.extra }

// add stores the edge {u, v} read from line lineNo. Past the budget it
// only counts the edge, remembering where the first such line starts: its
// first token, the edge's first field.
func (r *chunkResult) add(u, v int, line []byte, lineNo, budget int) {
	if len(r.edges) >= budget {
		if r.extra == 0 {
			r.overLine, r.overCol = lineNo, firstTokenCol(line)
		}
		r.extra++
		return
	}
	r.edges = append(r.edges, [2]int{u, v})
}

// parseChunks parses data[pos:], whose first line is line startLine, in
// line-aligned chunks with parse (on opt.Workers goroutines), then merges
// the results in input order as a line-by-line reader would: the first
// chunk error wins, unless the MaxEdges cap is crossed before it. The one
// chunk where the running edge count crosses the cap is then parsed again
// with the budget left, which locates the first edge line past the cap;
// only this error path pays for it.
func parseChunks(data []byte, pos, startLine int, opt CSROptions,
	parse func(chunk []byte, line, budget int) chunkResult) (chunks [][][2]int, maxV int, err *ParseError) {
	spans := splitChunks(data, pos, startLine, opt.Workers*chunkTarget)
	budget := opt.MaxEdges // no chunk stores more than the whole graph may hold
	if budget <= 0 {
		budget = math.MaxInt
	}
	results := make([]chunkResult, len(spans))
	graph.ParallelFor(len(spans), opt.Workers, 1, func(int) func(int) {
		return func(i int) {
			sp := spans[i]
			results[i] = parse(data[sp.lo:sp.hi], sp.line, budget)
		}
	})
	maxV = -1
	total := 0
	chunks = make([][][2]int, 0, len(results))
	for i, sp := range spans {
		r := &results[i]
		if total+r.count() > budget {
			over := parse(data[sp.lo:sp.hi], sp.line, budget-total)
			return nil, 0, &ParseError{Line: over.overLine, Col: over.overCol,
				Msg: "edge count exceeds the limit " + strconv.Itoa(opt.MaxEdges)}
		}
		if r.err != nil {
			return nil, 0, r.err
		}
		total += r.count()
		maxV = max(maxV, r.maxV)
		if len(r.edges) > 0 {
			chunks = append(chunks, r.edges)
		}
	}
	return chunks, maxV, nil
}

// parseEdgeListCSR is the parallel edge-list parser. The sequential
// prologue consumes leading blanks/comments and the optional single-integer
// header line; everything after is chunked.
func parseEdgeListCSR(data []byte, opt CSROptions) (*graph.CSR, error) {
	declaredN, pos, line, err := edgeListProlog(data, opt.MaxVertices)
	if err != nil {
		return nil, err
	}
	chunks, maxV, perr := parseChunks(data, pos, line, opt, func(chunk []byte, line, budget int) chunkResult {
		return parseEdgeListChunk(chunk, line, declaredN, opt.MaxVertices, budget)
	})
	if perr != nil {
		return nil, perr
	}
	n := declaredN
	if n < 0 {
		n = maxV + 1
	}
	return graph.CSRFromEdgeChunks(n, chunks), nil
}

// edgeListProlog scans the sequential prefix of an edge list: blank and
// comment lines, plus the optional header line (first data line holding a
// single integer). It returns the declared vertex count (-1 if none), the
// byte offset where chunked parsing starts, and that offset's 1-based
// line number.
func edgeListProlog(data []byte, maxVertices int) (declaredN, pos, line int, err error) {
	lineNo := 0
	var toks []btok
	for pos < len(data) {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		toks = splitFieldsBytes(stripCommentBytes(lineBytes), toks)
		if len(toks) == 0 {
			pos = next
			continue
		}
		if len(toks) != 1 {
			// First data line is an edge: no header, chunk from here.
			return -1, pos, lineNo, nil
		}
		v, verr := parseVertexBytes(toks[0], lineNo)
		if verr != nil {
			return 0, 0, 0, verr
		}
		if maxVertices > 0 && v > maxVertices {
			return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "vertex count " + strconv.Itoa(v) + " exceeds the limit " + strconv.Itoa(maxVertices)}
		}
		return v, next, lineNo + 1, nil
	}
	return -1, len(data), lineNo + 1, nil
}

// parseEdgeListChunk parses one line-aligned chunk of edge lines, storing
// at most budget edges.
func parseEdgeListChunk(data []byte, startLine, declaredN, maxVertices, budget int) chunkResult {
	res := chunkResult{maxV: -1}
	res.edges = make([][2]int, 0, min(len(data)/8, budget))
	lineNo := startLine - 1
	var toks []btok
	for pos := 0; pos < len(data); {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		pos = next
		// One-pass fast path for the dominant "u v" shape; any surprise
		// (sign, comment, field count, range violation) re-parses the line
		// generically so error positions and messages stay identical.
		if u, v, ok := fastEdgeLine(lineBytes); ok &&
			(maxVertices <= 0 || (u < maxVertices && v < maxVertices)) &&
			(declaredN < 0 || (u < declaredN && v < declaredN)) {
			if u > res.maxV {
				res.maxV = u
			}
			if v > res.maxV {
				res.maxV = v
			}
			res.add(u, v, lineBytes, lineNo, budget)
			continue
		}
		toks = splitFieldsBytes(stripCommentBytes(lineBytes), toks)
		if len(toks) == 0 {
			continue
		}
		if len(toks) != 2 {
			res.err = &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "expected an edge as two vertex indices \"u v\", got " + strconv.Itoa(len(toks)) + " fields"}
			return res
		}
		u, err := parseVertexBytes(toks[0], lineNo)
		if err != nil {
			res.err = err
			return res
		}
		v, err := parseVertexBytes(toks[1], lineNo)
		if err != nil {
			res.err = err
			return res
		}
		if maxVertices > 0 {
			for i, x := range [2]int{u, v} {
				if x >= maxVertices {
					res.err = &ParseError{Line: lineNo, Col: toks[i].col,
						Msg: "vertex " + strconv.Itoa(x) + " exceeds the limit of " + strconv.Itoa(maxVertices) + " vertices"}
					return res
				}
			}
		}
		if declaredN >= 0 {
			if u >= declaredN {
				res.err = &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "vertex " + strconv.Itoa(u) + " out of range [0," + strconv.Itoa(declaredN) + ") declared by the header line"}
				return res
			}
			if v >= declaredN {
				res.err = &ParseError{Line: lineNo, Col: toks[1].col,
					Msg: "vertex " + strconv.Itoa(v) + " out of range [0," + strconv.Itoa(declaredN) + ") declared by the header line"}
				return res
			}
		}
		if u > res.maxV {
			res.maxV = u
		}
		if v > res.maxV {
			res.maxV = v
		}
		res.add(u, v, lineBytes, lineNo, budget)
	}
	return res
}

// parseDIMACSCSR is the parallel DIMACS parser. The prologue consumes
// comments up to and including the problem line; the edge lines after it
// are chunked.
func parseDIMACSCSR(data []byte, opt CSROptions) (*graph.CSR, error) {
	n, pos, line, err := dimacsProlog(data, opt.MaxVertices, opt.MaxEdges)
	if err != nil {
		return nil, err
	}
	chunks, _, perr := parseChunks(data, pos, line, opt, func(chunk []byte, line, budget int) chunkResult {
		return parseDIMACSChunk(chunk, line, n, budget)
	})
	if perr != nil {
		return nil, perr
	}
	return graph.CSRFromEdgeChunks(n, chunks), nil
}

// dimacsProlog scans up to and including the 'p' problem line.
func dimacsProlog(data []byte, maxVertices, maxEdges int) (n, pos, line int, err error) {
	lineNo := 0
	var toks []btok
	for pos < len(data) {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		toks = splitFieldsBytes(lineBytes, toks)
		if len(toks) == 0 {
			pos = next
			continue
		}
		switch {
		case bytes.Equal(toks[0].s, []byte("c")):
			pos = next
		case bytes.Equal(toks[0].s, []byte("p")):
			if len(toks) < 3 {
				return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "malformed problem line, want \"p edge <vertices> <edges>\""}
			}
			v, ok := parseIntBytes(toks[2].s)
			if !ok || v < 0 {
				return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[2].col,
					Msg: "expected a non-negative vertex count, got " + strconv.Quote(string(toks[2].s))}
			}
			if maxVertices > 0 && v > maxVertices {
				return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[2].col,
					Msg: "vertex count " + strconv.Itoa(v) + " exceeds the limit " + strconv.Itoa(maxVertices)}
			}
			if len(toks) > 3 {
				m, ok := parseIntBytes(toks[3].s)
				if !ok {
					return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[3].col,
						Msg: "expected an edge count, got " + strconv.Quote(string(toks[3].s))}
				}
				if maxEdges > 0 && m > maxEdges {
					return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[3].col,
						Msg: "edge count " + strconv.Itoa(m) + " exceeds the limit " + strconv.Itoa(maxEdges)}
				}
			}
			return v, next, lineNo + 1, nil
		case bytes.Equal(toks[0].s, []byte("e")):
			return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "edge line before the \"p\" problem line"}
		default:
			return 0, 0, 0, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "unknown line type " + strconv.Quote(string(toks[0].s)) + " (want c, p, or e)"}
		}
	}
	return 0, 0, 0, &ParseError{Line: lineNo + 1, Msg: "missing \"p edge <vertices> <edges>\" problem line"}
}

// parseDIMACSChunk parses one line-aligned chunk of DIMACS lines after the
// problem line, storing at most budget edges.
func parseDIMACSChunk(data []byte, startLine, n, budget int) chunkResult {
	res := chunkResult{maxV: -1}
	res.edges = make([][2]int, 0, min(len(data)/10, budget))
	lineNo := startLine - 1
	var toks []btok
	for pos := 0; pos < len(data); {
		lineNo++
		lineBytes, next := nextLine(data, pos)
		pos = next
		// One-pass fast path for the dominant "e u v" shape; anything else
		// — including a range violation, whose error message needs token
		// columns — falls back to the general tokenizer below.
		if u, v, ok := fastDIMACSEdgeLine(lineBytes); ok &&
			u >= 1 && v >= 1 && u <= n && v <= n {
			res.add(u-1, v-1, lineBytes, lineNo, budget)
			continue
		}
		toks = splitFieldsBytes(lineBytes, toks)
		if len(toks) == 0 {
			continue
		}
		switch {
		case bytes.Equal(toks[0].s, []byte("c")):
			continue
		case bytes.Equal(toks[0].s, []byte("p")):
			res.err = &ParseError{Line: lineNo, Col: toks[0].col, Msg: "duplicate problem line"}
			return res
		case bytes.Equal(toks[0].s, []byte("e")):
			if len(toks) != 3 {
				res.err = &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "expected an edge line \"e <u> <v>\", got " + strconv.Itoa(len(toks)) + " fields"}
				return res
			}
			u, err := parseDIMACSVertexBytes(toks[1], lineNo, n)
			if err != nil {
				res.err = err
				return res
			}
			v, err := parseDIMACSVertexBytes(toks[2], lineNo, n)
			if err != nil {
				res.err = err
				return res
			}
			res.add(u-1, v-1, lineBytes, lineNo, budget)
		default:
			res.err = &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "unknown line type " + strconv.Quote(string(toks[0].s)) + " (want c, p, or e)"}
			return res
		}
	}
	return res
}

// fastEdgeLine parses the overwhelmingly common edge-list line shape —
// two unsigned decimal fields, separating blanks, nothing else — in one
// pass. ok=false means "use the general tokenizer", not "error": signs,
// comments, '\r' between fields, surprising field counts, and
// overflow-length digit runs all bail out so the slow path keeps sole
// ownership of the error taxonomy.
func fastEdgeLine(line []byte) (u, v int, ok bool) {
	i := skipBlanks(line, 0)
	u, i, ok = fastUint(line, i)
	if !ok || i >= len(line) || (line[i] != ' ' && line[i] != '\t') {
		return 0, 0, false
	}
	i = skipBlanks(line, i)
	v, i, ok = fastUint(line, i)
	if !ok {
		return 0, 0, false
	}
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	return u, v, i == len(line)
}

// fastDIMACSEdgeLine is fastEdgeLine for the "e <u> <v>" shape. Range
// checks stay with the caller (bailing to the slow path on violation, for
// its column-accurate error).
func fastDIMACSEdgeLine(line []byte) (u, v int, ok bool) {
	i := skipBlanks(line, 0)
	if i >= len(line) || line[i] != 'e' {
		return 0, 0, false
	}
	i++
	if i >= len(line) || (line[i] != ' ' && line[i] != '\t') {
		return 0, 0, false
	}
	i = skipBlanks(line, i)
	u, i, ok = fastUint(line, i)
	if !ok || i >= len(line) || (line[i] != ' ' && line[i] != '\t') {
		return 0, 0, false
	}
	i = skipBlanks(line, i)
	v, i, ok = fastUint(line, i)
	if !ok {
		return 0, 0, false
	}
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	return u, v, i == len(line)
}

func skipBlanks(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
		i++
	}
	return i
}

// fastUint reads a run of decimal digits. Runs long enough to overflow
// (>18 digits) report !ok and defer to parseIntBytes' exact handling.
func fastUint(line []byte, i int) (int, int, bool) {
	start := i
	v := 0
	for i < len(line) {
		c := line[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int(c)
		i++
	}
	if i == start || i-start > 18 {
		return 0, i, false
	}
	return v, i, true
}

// firstTokenCol is the 1-based column of line's first token.
func firstTokenCol(line []byte) int {
	i := 0
	for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
		i++
	}
	return i + 1
}

// nextLine returns the line starting at pos (without its '\n') and the
// offset just past it.
func nextLine(data []byte, pos int) ([]byte, int) {
	if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
		return data[pos : pos+nl], pos + nl + 1
	}
	return data[pos:], len(data)
}

// btok is one whitespace-delimited field with its 1-based starting
// column.
type btok struct {
	s   []byte
	col int
}

// splitFieldsBytes tokenizes a line on ' ', '\t', '\r'.
func splitFieldsBytes(line []byte, toks []btok) []btok {
	toks = toks[:0]
	start := -1
	for i := 0; i <= len(line); i++ {
		var space bool
		if i == len(line) {
			space = true
		} else {
			c := line[i]
			space = c == ' ' || c == '\t' || c == '\r'
		}
		switch {
		case space && start >= 0:
			toks = append(toks, btok{s: line[start:i], col: start + 1})
			start = -1
		case !space && start < 0:
			start = i
		}
	}
	return toks
}

// stripCommentBytes drops a trailing '#' or '%' comment.
func stripCommentBytes(line []byte) []byte {
	for i, c := range line {
		if c == '#' || c == '%' {
			return line[:i]
		}
	}
	return line
}

// parseIntBytes parses a decimal integer with strconv.Atoi's accepted
// syntax (optional sign, digits, no other bytes, overflow rejected) but
// without the per-token string allocation.
func parseIntBytes(s []byte) (int, bool) {
	if len(s) == 0 {
		return 0, false
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
		if len(s) == 0 {
			return 0, false
		}
	}
	v := 0
	for _, c := range s {
		d := int(c - '0')
		if d < 0 || d > 9 {
			return 0, false
		}
		if v > (math.MaxInt-d)/10 {
			return 0, false // overflow: Atoi reports ErrRange, both reject
		}
		v = v*10 + d
	}
	if neg {
		return -v, true
	}
	return v, true
}

// parseVertexBytes parses a non-negative vertex index.
func parseVertexBytes(t btok, line int) (int, *ParseError) {
	v, ok := parseIntBytes(t.s)
	if !ok || v < 0 {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "expected a non-negative vertex index, got " + strconv.Quote(string(t.s))}
	}
	return v, nil
}

// parseDIMACSVertexBytes parses a 1-based endpoint and range-checks it
// against the declared vertex count.
func parseDIMACSVertexBytes(t btok, line, n int) (int, *ParseError) {
	v, ok := parseIntBytes(t.s)
	if !ok || v < 1 {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "expected a 1-based vertex index, got " + strconv.Quote(string(t.s))}
	}
	if v > n {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "vertex " + strconv.Itoa(v) + " out of range [1," + strconv.Itoa(n) + "] declared by the problem line"}
	}
	return v, nil
}
