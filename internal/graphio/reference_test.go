package graphio

import (
	"bufio"
	"bytes"
	"strconv"

	"localmds/internal/graph"
)

// This file keeps the streaming line-by-line text readers that once sat
// behind Read as the spec oracle for the text formats: they tokenize each
// bufio.Scanner line with strconv and build through
// graph.FromEdgesUnchecked, independently of ParseCSR's chunked byte
// parser. The parity tests require ParseCSR and ReadLimited to give the
// same graph, or the same error string, on every input they try.

// referenceRead parses a text input with the oracle readers.
func referenceRead(data []byte, f Format, maxVertices, maxEdges int) (*graph.Graph, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	switch f {
	case FormatEdgeList:
		return readEdgeList(br, maxVertices, maxEdges)
	case FormatDIMACS:
		return readDIMACS(br, maxVertices, maxEdges)
	}
	panic("referenceRead: not a text format: " + f.String())
}

// token is one whitespace-delimited field with its 1-based starting column.
type token struct {
	text string
	col  int
}

// splitFields tokenizes a line, recording each token's starting column.
func splitFields(line string, toks []token) []token {
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
			toks = append(toks, token{text: line[start:i], col: start + 1})
			start = -1
		case !space && start < 0:
			start = i
		}
	}
	return toks
}

// parseVertex parses a non-negative vertex index.
func parseVertex(t token, line int) (int, error) {
	v, err := strconv.Atoi(t.text)
	if err != nil || v < 0 {
		return 0, &ParseError{Line: line, Col: t.col, Msg: "expected a non-negative vertex index, got " + strconv.Quote(t.text)}
	}
	return v, nil
}

// readEdgeList parses the plain edge-list format: one "u v" pair per line,
// 0-based endpoints, '#'/'%' comments (whole-line or trailing), blank lines
// ignored. An optional first data line holding a single integer declares
// the vertex count; otherwise n = 1 + max endpoint. Self-loops and
// duplicate edges are collapsed by graph.FromEdgesUnchecked, matching its
// tolerant batch-build contract. With maxVertices > 0, a declared count or
// endpoint beyond the limit fails before any allocation proportional to
// it; with maxEdges > 0, the parse stops at the first edge line past the
// limit.
func readEdgeList(br *bufio.Reader, maxVertices, maxEdges int) (*graph.Graph, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var edges [][2]int
	var toks []token
	n := -1 // declared vertex count, if any
	maxV := -1
	lineNo := 0
	sawData := false
	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		toks = splitFields(line, toks)
		if len(toks) == 0 {
			continue
		}
		if !sawData && len(toks) == 1 {
			// Header line: explicit vertex count.
			v, err := parseVertex(toks[0], lineNo)
			if err != nil {
				return nil, err
			}
			if maxVertices > 0 && v > maxVertices {
				return nil, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "vertex count " + strconv.Itoa(v) + " exceeds the limit " + strconv.Itoa(maxVertices)}
			}
			n = v
			sawData = true
			continue
		}
		sawData = true
		if len(toks) != 2 {
			return nil, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "expected an edge as two vertex indices \"u v\", got " + strconv.Itoa(len(toks)) + " fields"}
		}
		u, err := parseVertex(toks[0], lineNo)
		if err != nil {
			return nil, err
		}
		v, err := parseVertex(toks[1], lineNo)
		if err != nil {
			return nil, err
		}
		if maxVertices > 0 {
			for i, x := range []int{u, v} {
				if x >= maxVertices {
					return nil, &ParseError{Line: lineNo, Col: toks[i].col,
						Msg: "vertex " + strconv.Itoa(x) + " exceeds the limit of " + strconv.Itoa(maxVertices) + " vertices"}
				}
			}
		}
		if n >= 0 {
			if u >= n {
				return nil, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "vertex " + strconv.Itoa(u) + " out of range [0," + strconv.Itoa(n) + ") declared by the header line"}
			}
			if v >= n {
				return nil, &ParseError{Line: lineNo, Col: toks[1].col,
					Msg: "vertex " + strconv.Itoa(v) + " out of range [0," + strconv.Itoa(n) + ") declared by the header line"}
			}
		}
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
		if maxEdges > 0 && len(edges) >= maxEdges {
			return nil, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "edge count exceeds the limit " + strconv.Itoa(maxEdges)}
		}
		edges = append(edges, [2]int{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: lineNo + 1, Msg: "read: " + err.Error()}
	}
	if n < 0 {
		n = maxV + 1
	}
	return graph.FromEdgesUnchecked(n, edges), nil
}

// stripComment drops a trailing '#' or '%' comment.
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == '#' || line[i] == '%' {
			return line[:i]
		}
	}
	return line
}

// readDIMACS parses the DIMACS graph format: 'c' comment lines, a single
// 'p edge <n> <m>' (or 'p col ...') problem line, then 'e <u> <v>' edge
// lines with 1-based endpoints in [1, n]. The declared edge count m is
// advisory (real-world files routinely mis-state it); endpoints are
// validated strictly. Duplicate edges and self-loops are collapsed by
// graph.FromEdgesUnchecked. With maxVertices > 0, a declared count beyond
// the limit fails before any allocation proportional to it; with
// maxEdges > 0, both the declared m and the actual number of edge lines
// are bounded.
func readDIMACS(br *bufio.Reader, maxVertices, maxEdges int) (*graph.Graph, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var edges [][2]int
	var toks []token
	n := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		toks = splitFields(sc.Text(), toks)
		if len(toks) == 0 {
			continue
		}
		switch toks[0].text {
		case "c":
			continue
		case "p":
			if n >= 0 {
				return nil, &ParseError{Line: lineNo, Col: toks[0].col, Msg: "duplicate problem line"}
			}
			if len(toks) < 3 {
				return nil, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "malformed problem line, want \"p edge <vertices> <edges>\""}
			}
			v, err := strconv.Atoi(toks[2].text)
			if err != nil || v < 0 {
				return nil, &ParseError{Line: lineNo, Col: toks[2].col,
					Msg: "expected a non-negative vertex count, got " + strconv.Quote(toks[2].text)}
			}
			if maxVertices > 0 && v > maxVertices {
				return nil, &ParseError{Line: lineNo, Col: toks[2].col,
					Msg: "vertex count " + strconv.Itoa(v) + " exceeds the limit " + strconv.Itoa(maxVertices)}
			}
			n = v
			if len(toks) > 3 {
				m, err := strconv.Atoi(toks[3].text)
				if err != nil {
					return nil, &ParseError{Line: lineNo, Col: toks[3].col,
						Msg: "expected an edge count, got " + strconv.Quote(toks[3].text)}
				}
				if maxEdges > 0 && m > maxEdges {
					return nil, &ParseError{Line: lineNo, Col: toks[3].col,
						Msg: "edge count " + strconv.Itoa(m) + " exceeds the limit " + strconv.Itoa(maxEdges)}
				}
			}
		case "e":
			if n < 0 {
				return nil, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "edge line before the \"p\" problem line"}
			}
			if len(toks) != 3 {
				return nil, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "expected an edge line \"e <u> <v>\", got " + strconv.Itoa(len(toks)) + " fields"}
			}
			u, err := parseDIMACSVertex(toks[1], lineNo, n)
			if err != nil {
				return nil, err
			}
			v, err := parseDIMACSVertex(toks[2], lineNo, n)
			if err != nil {
				return nil, err
			}
			if maxEdges > 0 && len(edges) >= maxEdges {
				return nil, &ParseError{Line: lineNo, Col: toks[0].col,
					Msg: "edge count exceeds the limit " + strconv.Itoa(maxEdges)}
			}
			edges = append(edges, [2]int{u - 1, v - 1})
		default:
			return nil, &ParseError{Line: lineNo, Col: toks[0].col,
				Msg: "unknown line type " + strconv.Quote(toks[0].text) + " (want c, p, or e)"}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: lineNo + 1, Msg: "read: " + err.Error()}
	}
	if n < 0 {
		return nil, &ParseError{Line: lineNo + 1, Msg: "missing \"p edge <vertices> <edges>\" problem line"}
	}
	return graph.FromEdgesUnchecked(n, edges), nil
}

// parseDIMACSVertex parses a 1-based endpoint and range-checks it against
// the declared vertex count.
func parseDIMACSVertex(t token, line, n int) (int, error) {
	v, err := strconv.Atoi(t.text)
	if err != nil || v < 1 {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "expected a 1-based vertex index, got " + strconv.Quote(t.text)}
	}
	if v > n {
		return 0, &ParseError{Line: line, Col: t.col,
			Msg: "vertex " + strconv.Itoa(v) + " out of range [1," + strconv.Itoa(n) + "] declared by the problem line"}
	}
	return v, nil
}
