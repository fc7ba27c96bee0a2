package graph

import (
	"fmt"
	"strings"
)

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
