// Package graphio reads and writes graphs in the interchange formats the
// CLIs and the mdsd service accept: the repository's JSON encoding
// ({"n": ..., "edges": [[u,v], ...]}), plain whitespace-separated edge
// lists, DIMACS, and the binary csrbin encoding (a checksummed on-disk
// graph.CSR that OpenCSRBin can mmap without parsing). The text formats
// and JSON have one parser, ParseCSR, which takes the whole input as one
// byte slice and builds the frozen CSR directly: the text formats are
// chunk-split at line boundaries (in parallel when Workers is set) and
// JSON edges go through graph.CSRFromEdgesChecked. csrbin has one
// validating decoder, fed from memory by ParseCSR and from the stream by
// Read. LoadCSR is the file loader of the CLIs that solve on the CSR: it
// maps a csrbin file and parses any other input. Write and WriteFile
// encode a CSR in every format. Read, ReadLimited and ReadFile wrap the
// parsers for callers that want a *graph.Graph (the perfbench module and
// tests).
// Every malformed input is reported as a *ParseError (text) or
// *FormatError (csrbin) carrying the position of the offending token,
// never as a panic.
package graphio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"localmds/internal/graph"
)

// Format identifies one of the supported graph encodings.
type Format int

const (
	// FormatAuto sniffs the format from the first non-blank byte of the
	// input: '{' is JSON, 'c' or 'p' is DIMACS, anything else is tried as
	// a plain edge list.
	FormatAuto Format = iota
	// FormatJSON is the repository encoding {"n": ..., "edges": [...]}.
	FormatJSON
	// FormatEdgeList is a plain text edge list: one "u v" pair per line,
	// 0-based endpoints, '#' or '%' comments. An optional first data line
	// holding a single integer fixes the vertex count (allowing trailing
	// isolated vertices); otherwise n is 1 + the largest endpoint.
	FormatEdgeList
	// FormatDIMACS is the DIMACS graph format: 'c' comment lines, one
	// 'p edge <n> <m>' problem line, then 'e <u> <v>' edge lines with
	// 1-based endpoints.
	FormatDIMACS
	// FormatCSRBin is the binary csrbin encoding: a 64-byte checksummed
	// header followed by the little-endian Offsets/Targets arrays of a
	// frozen graph.CSR, designed to be mmap'd (see OpenCSRBin).
	FormatCSRBin
)

// ParseFormat maps a user-facing format name to a Format.
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		return FormatAuto, nil
	case "json":
		return FormatJSON, nil
	case "edgelist", "edges", "el":
		return FormatEdgeList, nil
	case "dimacs":
		return FormatDIMACS, nil
	case "csrbin":
		return FormatCSRBin, nil
	}
	return FormatAuto, fmt.Errorf("graphio: unknown format %q (want auto|json|edgelist|dimacs|csrbin)", name)
}

// String returns the canonical format name.
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatEdgeList:
		return "edgelist"
	case FormatDIMACS:
		return "dimacs"
	case FormatCSRBin:
		return "csrbin"
	default:
		return "auto"
	}
}

// ParseError locates a syntax or validation error in a text input.
type ParseError struct {
	// Line and Col are 1-based; Col points at the first byte of the
	// offending token (0 when the error concerns the whole line).
	Line, Col int
	// Msg describes the problem.
	Msg string
}

func (e *ParseError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("line %d, column %d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// Read parses a graph from r in the given format, with no vertex- or
// edge-count limit. With FormatAuto it sniffs the encoding first (see
// Detect). Text-format errors are *ParseError values with line/column
// positions; csrbin errors are *FormatError values with byte offsets.
func Read(r io.Reader, f Format) (*graph.Graph, error) {
	return ReadLimited(r, f, 0, 0)
}

// ReadLimited is Read bounded by maxVertices and maxEdges (0 = unlimited):
// an input declaring or implying more vertices or edges is rejected with
// an error instead of a graph of that size. Services parsing untrusted
// payloads must use it — a 40-byte DIMACS or csrbin header can otherwise
// declare a multi-gigabyte vertex or edge count. A csrbin stream is
// decoded as it is read, allocating nothing proportional to its counts
// before they pass the limits; every other format is read to the end of r
// first and parsed with ParseCSR, so a caller facing untrusted input must
// also bound the length of r (mdsd caps its request bodies).
func ReadLimited(r io.Reader, f Format, maxVertices, maxEdges int) (*graph.Graph, error) {
	c, err := readCSR(r, 0, f, CSROptions{MaxVertices: maxVertices, MaxEdges: maxEdges})
	if err != nil {
		return nil, err
	}
	return graph.FromCSR(c), nil
}

// ReadFile reads a graph from path ("-" reads stdin) in the given
// format, prefixing errors with the input name, for callers that want a
// *graph.Graph. It is ParseCSRFile plus graph.FromCSR; the CLIs parse
// with ParseCSRFile or load with LoadCSR instead.
func ReadFile(path string, f Format) (*graph.Graph, error) {
	c, err := ParseCSRFile(path, f, CSROptions{})
	if err != nil {
		return nil, err
	}
	return graph.FromCSR(c), nil
}

// readJSON decodes the repository encoding {"n": ..., "edges": [...]},
// enforcing the vertex and edge limits before the CSR (whose storage is
// proportional to n + m) is built. Only whitespace may follow the
// document. The edges go through graph.CSRFromEdgesChecked, so they are
// validated exactly as graph.FromEdges validates them, in linear time.
func readJSON(data []byte, maxVertices, maxEdges int) (*graph.CSR, error) {
	var jg struct {
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("graphio: json: %w", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("graphio: json: unexpected data after the document ending at byte offset %d", end)
	}
	if jg.N < 0 {
		return nil, fmt.Errorf("graphio: json: negative vertex count %d", jg.N)
	}
	if maxVertices > 0 && jg.N > maxVertices {
		return nil, fmt.Errorf("graphio: json: vertex count %d exceeds the limit %d", jg.N, maxVertices)
	}
	if maxEdges > 0 && len(jg.Edges) > maxEdges {
		return nil, fmt.Errorf("graphio: json: edge count %d exceeds the limit %d", len(jg.Edges), maxEdges)
	}
	c, err := graph.CSRFromEdgesChecked(jg.N, jg.Edges)
	if err != nil {
		return nil, fmt.Errorf("graphio: json: %w", err)
	}
	return c, nil
}

// Detect sniffs the format from the first non-blank byte of a prefix of
// the input: 0x89 (the first csrbin magic byte) is csrbin, '{' is JSON,
// 'c' or 'p' is DIMACS, digits and comment markers ('#', '%') are an edge
// list.
func Detect(prefix []byte) (Format, error) {
	for _, b := range prefix {
		switch {
		case b == csrbinMagic[0]:
			return FormatCSRBin, nil
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			continue
		case b == '{':
			return FormatJSON, nil
		case b == 'c' || b == 'p':
			return FormatDIMACS, nil
		case b >= '0' && b <= '9', b == '#', b == '%':
			return FormatEdgeList, nil
		default:
			return FormatAuto, fmt.Errorf("graphio: cannot detect format from leading byte %q (want JSON '{', DIMACS 'c'/'p', or an edge list)", b)
		}
	}
	return FormatAuto, fmt.Errorf("graphio: cannot detect format of empty input")
}
