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

// Delete returns the graph g - s obtained by deleting all vertices of s,
// plus the mapping from new indices to original ones.
func (g *Graph) Delete(s []int) (*Graph, []int) {
	drop := make(map[int]bool, len(s))
	for _, v := range s {
		drop[v] = true
	}
	keep := make([]int, 0, g.N()-len(drop))
	for v := 0; v < g.N(); v++ {
		if !drop[v] {
			keep = append(keep, v)
		}
	}
	return g.Induced(keep)
}

// DisjointUnion returns the disjoint union of g and h; vertices of h are
// shifted by g.N().
func DisjointUnion(g, h *Graph) *Graph {
	u := New(g.N() + h.N())
	g.VisitEdges(func(a, b int) { u.AddEdge(a, b) })
	off := g.N()
	h.VisitEdges(func(a, b int) { u.AddEdge(a+off, b+off) })
	return u
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
