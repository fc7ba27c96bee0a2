package graph

import "sort"

// Induced returns the subgraph of g induced by the vertex set s, together
// with the mapping from new vertex indices to original ones. Duplicate
// entries in s are collapsed; the mapping is sorted ascending so that the
// relabeling is canonical.
func (g *Graph) Induced(s []int) (*Graph, []int) {
	verts := dedupSorted(s)
	index := make(map[int]int, len(verts))
	for i, v := range verts {
		index[v] = i
	}
	// Relabeling is monotone (verts ascending), so mapped adjacency rows
	// stay sorted and can be built directly into one shared backing array —
	// no insertSorted, no per-edge HasEdge.
	total := 0
	for _, v := range verts {
		for _, u := range g.adj[v] {
			if _, ok := index[u]; ok {
				total++
			}
		}
	}
	h := New(len(verts))
	buf := make([]int, 0, total)
	for i, v := range verts {
		start := len(buf)
		for _, u := range g.adj[v] {
			if j, ok := index[u]; ok {
				buf = append(buf, j)
			}
		}
		h.adj[i] = buf[start:len(buf):len(buf)]
	}
	h.m = total / 2
	return h, verts
}

// InducedBall returns g[N^r[v]] plus the vertex mapping, a convenience for
// local-cut detection (Definition 2.1). Only test code calls it:
// cuts.IsLocalOneCut, a test-only spec, and graph's subgraph_test.go.
func (g *Graph) InducedBall(v, r int) (*Graph, []int) {
	return g.Induced(g.Ball(v, r))
}

// DisjointUnion returns the disjoint union of g and h; vertices of h are
// shifted by g.N(). Both operands' rows are copied into one backing array
// (h's shifted, which keeps them sorted), with no per-edge insertion.
func DisjointUnion(g, h *Graph) *Graph {
	off := g.N()
	adj := make([][]int, off+h.N())
	buf := make([]int, 2*(g.m+h.m))
	k := 0
	for v, a := range g.adj {
		adj[v] = buf[k : k+len(a) : k+len(a)]
		copy(adj[v], a)
		k += len(a)
	}
	for v, a := range h.adj {
		row := buf[k : k+len(a) : k+len(a)]
		for i, u := range a {
			row[i] = u + off
		}
		adj[off+v] = row
		k += len(a)
	}
	return &Graph{adj: adj, m: g.m + h.m}
}

// IdentifyVertices returns the graph obtained from g by identifying every
// vertex in each group into that group's first element. Groups must be
// pairwise disjoint. The returned mapping sends new indices to the
// representative original vertex.
func IdentifyVertices(g *Graph, groups [][]int) (*Graph, []int) {
	rep := make([]int, g.N())
	for v := range rep {
		rep[v] = v
	}
	for _, grp := range groups {
		if len(grp) == 0 {
			continue
		}
		r := grp[0]
		for _, v := range grp[1:] {
			rep[v] = r
		}
	}
	// Compress representative labels into 0..k-1 preserving order.
	var keep []int
	for v := 0; v < g.N(); v++ {
		if rep[v] == v {
			keep = append(keep, v)
		}
	}
	index := make(map[int]int, len(keep))
	for i, v := range keep {
		index[v] = i
	}
	h := New(len(keep))
	g.VisitEdges(func(eu, ev int) {
		a, b := rep[eu], rep[ev]
		if a == b {
			return
		}
		ia, ib := index[a], index[b]
		if !h.HasEdge(ia, ib) {
			h.AddEdge(ia, ib)
		}
	})
	return h, keep
}

func dedupSorted(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[j-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}

func sortInts(s []int) { sort.Ints(s) }
