package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// jsonGraph is the wire format: {"n": 5, "edges": [[0,1],[1,2]]}.
type jsonGraph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON encodes the graph as {"n": ..., "edges": [[u,v], ...]} with
// edges in canonical (u < v, lexicographic) order.
func (g *Graph) MarshalJSON() ([]byte, error) {
	edges := make([][2]int, 0, g.M())
	g.VisitEdges(func(u, v int) {
		edges = append(edges, [2]int{u, v})
	})
	return json.Marshal(jsonGraph{N: g.N(), Edges: edges})
}

// UnmarshalJSON decodes the wire format produced by MarshalJSON, validating
// the edge list.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	if jg.N < 0 {
		return fmt.Errorf("graph: decode: negative vertex count %d", jg.N)
	}
	h, err := FromEdges(jg.N, jg.Edges)
	if err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	*g = *h
	return nil
}

// WriteJSON writes the JSON encoding of g to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(g)
}

// ReadJSON parses a graph from r. Only tests call it: graph's
// encode_test.go and fuzz_test.go, and cmd/graphgen's main_test.go.
// Production reads go through graphio.
func ReadJSON(r io.Reader) (*Graph, error) {
	var g Graph
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// DOT renders c in Graphviz DOT format. Vertices in highlight are drawn
// filled; pass nil for a plain rendering. Rows are sorted, so edges come
// out once each as u -- v with u < v, in lexicographic order.
func (c *CSR) DOT(name string, highlight []int) string {
	hi := make(map[int]bool, len(highlight))
	for _, v := range highlight {
		hi[v] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s {\n", sanitizeDOTName(name))
	for v := 0; v < c.N(); v++ {
		if hi[v] {
			fmt.Fprintf(&b, "  %d [style=filled, fillcolor=gold];\n", v)
		} else {
			fmt.Fprintf(&b, "  %d;\n", v)
		}
	}
	for u := 0; u < c.N(); u++ {
		for _, v := range c.Row(u) {
			if int(v) > u {
				fmt.Fprintf(&b, "  %d -- %d;\n", u, v)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func sanitizeDOTName(name string) string {
	if name == "" {
		return "G"
	}
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
