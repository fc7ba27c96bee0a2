package graphio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"

	"localmds/internal/graph"
)

// Write encodes c to w in the given format; FormatAuto writes JSON. Every
// format lists the edges once each as u < v in canonical order:
//
//   - JSON: {"n":N,"edges":[[u,v],...]} and a newline;
//   - edge list: a header line with the vertex count (so isolated
//     vertices survive a round trip), then one "u v" line per edge;
//   - DIMACS: a "p edge n m" problem line, then one 1-based "e u v" line
//     per edge;
//   - csrbin: the checksummed binary encoding (see OpenCSRBin).
func Write(w io.Writer, c *graph.CSR, f Format) error {
	switch f {
	case FormatEdgeList:
		return writeEdges(w, c, fmt.Sprintf("%d\n", c.N()), "", " ", "\n", "", "", 0)
	case FormatDIMACS:
		return writeEdges(w, c, fmt.Sprintf("p edge %d %d\n", c.N(), c.M()), "e ", " ", "\n", "", "", 1)
	case FormatCSRBin:
		return writeCSRBin(w, c)
	default:
		return writeEdges(w, c, fmt.Sprintf(`{"n":%d,"edges":[`, c.N()), "[", ",", "]", ",", "]}\n", 0)
	}
}

// WriteFile writes c's encoding in format f to path ("-" writes stdout).
// A file that fails to close is reported as an error: its contents may
// not have reached the disk.
func WriteFile(path string, c *graph.CSR, f Format) error {
	if path == "-" {
		return Write(os.Stdout, c, f)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(out, c, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeEdges writes head, then pre+u+mid+v+post for every edge u < v in
// canonical order with sep between edges and both endpoints shifted by
// base, then tail.
func writeEdges(w io.Writer, c *graph.CSR, head, pre, mid, post, sep, tail string, base int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(head)
	var num []byte
	first := true
	for u := 0; u < c.N(); u++ {
		for _, v := range c.Row(u) {
			if int(v) < u {
				continue
			}
			if !first {
				bw.WriteString(sep)
			}
			first = false
			bw.WriteString(pre)
			num = strconv.AppendInt(num[:0], int64(u+base), 10)
			bw.Write(num)
			bw.WriteString(mid)
			num = strconv.AppendInt(num[:0], int64(int(v)+base), 10)
			bw.Write(num)
			bw.WriteString(post)
		}
	}
	bw.WriteString(tail)
	return bw.Flush()
}
