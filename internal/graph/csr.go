package graph

import "sort"

// CSR is a frozen compressed-sparse-row view of a graph: the concatenated
// sorted adjacency lists in Targets, delimited by Offsets (len n+1). It is
// immutable once built; traversals over it touch two flat int32 arrays
// instead of n separate adjacency slices, which is both cache-friendlier
// and allocation-free to share. int32 bounds the substrate at ~2 billion
// vertices/arcs, far beyond anything the simulator runs.
type CSR struct {
	Offsets []int32 // len n+1; arcs of v are Targets[Offsets[v]:Offsets[v+1]]
	Targets []int32 // len 2m; neighbor lists, each sorted ascending
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.Offsets) - 1 }

// M returns the number of edges.
func (c *CSR) M() int { return len(c.Targets) / 2 }

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return int(c.Offsets[v+1] - c.Offsets[v]) }

// Row returns the neighbor list of v as an int32 slice view into Targets.
// Callers must not modify it.
func (c *CSR) Row(v int) []int32 { return c.Targets[c.Offsets[v]:c.Offsets[v+1]] }

// buildCSR flattens adjacency lists into a CSR.
func buildCSR(adj [][]int) *CSR {
	offsets := make([]int32, len(adj)+1)
	total := 0
	for v, a := range adj {
		offsets[v] = int32(total)
		total += len(a)
	}
	offsets[len(adj)] = int32(total)
	targets := make([]int32, total)
	k := 0
	for _, a := range adj {
		for _, u := range a {
			targets[k] = int32(u)
			k++
		}
	}
	return &CSR{Offsets: offsets, Targets: targets}
}

// Freeze builds (or returns the cached) CSR view of g and returns it. The
// cache is invalidated by any mutation (AddEdge, RemoveEdge, AddVertex).
// Freeze is not safe for concurrent use with itself or with mutators; call
// it once before handing the graph to concurrent readers.
func (g *Graph) Freeze() *CSR {
	if g.csr == nil {
		g.csr = buildCSR(g.adj)
	}
	return g.csr
}

// CSR returns the frozen view if one is cached, or nil. Read paths use it
// opportunistically: frozen graphs traverse the flat arrays, unfrozen ones
// the adjacency lists.
func (g *Graph) CSR() *CSR { return g.csr }

// FromEdgesUnchecked batch-builds a graph on n vertices from an edge list
// in O(n + m log deg), trusting the input far enough to skip the per-edge
// HasEdge/insertSorted work of FromEdges: self-loops are dropped and
// duplicate edges (in either orientation) are collapsed rather than
// rejected. All adjacency lists share one backing array, so the result is
// compact and a subsequent Freeze is cheap. It panics on out-of-range
// endpoints, matching AddEdge. Only tests call it, as the adjacency-list
// reference of CSRFromEdges: graph's, graphio's, service's and store's.
func FromEdgesUnchecked(n int, edges [][2]int) *Graph {
	deg := make([]int, n)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	total := 0
	for _, d := range deg {
		total += d
	}
	buf := make([]int, total)
	adj := make([][]int, n)
	off := 0
	for v, d := range deg {
		adj[v] = buf[off : off : off+d]
		off += d
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	m := 0
	for v := range adj {
		a := adj[v]
		sort.Ints(a)
		// Collapse duplicates in place.
		j := 0
		for i, x := range a {
			if i == 0 || x != a[j-1] {
				a[j] = x
				j++
			}
		}
		adj[v] = a[:j]
		m += j
	}
	return &Graph{adj: adj, m: m / 2}
}
