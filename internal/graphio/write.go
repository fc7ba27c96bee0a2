package graphio

import (
	"bufio"
	"fmt"
	"io"

	"localmds/internal/graph"
)

// Write encodes g to w in the given format. FormatAuto writes JSON.
// Only tests call it: graphio's fuzz_test.go, graphio_test.go and
// parallel_test.go, and core's huge_test.go. cmd/graphgen calls the
// per-format writers directly.
func Write(w io.Writer, g *graph.Graph, f Format) error {
	switch f {
	case FormatEdgeList:
		return WriteEdgeList(w, g)
	case FormatDIMACS:
		return WriteDIMACS(w, g)
	default:
		return g.WriteJSON(w)
	}
}

// WriteEdgeList writes the plain edge-list encoding of g: a header line
// with the vertex count (so isolated vertices survive a round trip)
// followed by one "u v" line per edge in canonical order.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", g.N())
	g.VisitEdges(func(u, v int) {
		fmt.Fprintf(bw, "%d %d\n", u, v)
	})
	return bw.Flush()
}

// WriteDIMACS writes the DIMACS encoding of g: a "p edge n m" problem line
// followed by one 1-based "e u v" line per edge in canonical order.
func WriteDIMACS(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.M())
	g.VisitEdges(func(u, v int) {
		fmt.Fprintf(bw, "e %d %d\n", u+1, v+1)
	})
	return bw.Flush()
}
