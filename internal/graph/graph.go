// Package graph provides the undirected-graph substrate used throughout the
// localmds repository. It has two representations. CSR is the immutable
// flat graph every solver, loader and writer holds: traversals,
// neighborhood balls, connectivity, twin reduction, diameters and the
// content fingerprint run on it. The generators (gen, ding) emit edge
// lists that CSRFromEdges builds once. Graph is the mutable adjacency-list
// graph that the spec oracles (cuts' global and reference checks, spqr,
// asdim, minor) read and tests grow edge by edge; the generators'
// exported constructors hand it out through FromCSR, and Freeze turns it
// back into a CSR.
//
// Vertices are dense integers 0..n-1. All graphs are simple (no loops, no
// multi-edges) and undirected. Mutating constructors normalize edge input;
// accessors never mutate. The package is deliberately dependency-free so that
// every other substrate (cuts, spqr, minor, local, ...) can build on it.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph over vertices 0..n-1 stored as sorted
// adjacency lists: the input of the spec oracles, and the mutable graph
// that tests, the test-only generators and the per-edge reference
// generators grow with AddEdge. The zero value is the empty graph. Freeze
// builds the CSR that everything past generation holds; the two never
// share storage.
type Graph struct {
	adj [][]int
	m   int
}

// New returns an edgeless graph on n vertices. It panics if n is negative.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{adj: make([][]int, n)}
}

// FromEdges builds a graph on n vertices from the given edge list.
// Out-of-range endpoints, duplicate edges and self-loops are rejected
// with AddEdgeChecked's error for the first offending edge, so that
// generator bugs surface early. It runs in linear time through
// CSRFromEdgesChecked. Only tests reach it: graph's own, and cuts' and
// graphio's through MustFromEdges.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	c, err := CSRFromEdgesChecked(n, edges)
	if err != nil {
		return nil, err
	}
	return FromCSR(c), nil
}

// MustFromEdges is FromEdges for static test fixtures; it panics on error.
// Only tests call it: graph's own, cuts' edgecases_test.go and
// tarjan_test.go, and graphio's graphio_test.go.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	a := g.adj[u]
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// AddEdge inserts the undirected edge {u, v}, ignoring the request if the
// edge already exists. It panics on out-of-range endpoints or self-loops.
func (g *Graph) AddEdge(u, v int) {
	if err := g.addEdge(u, v, true); err != nil {
		panic(err)
	}
}

// AddEdgeChecked inserts the undirected edge {u, v} and returns an error on
// out-of-range endpoints, self-loops, or duplicate edges.
func (g *Graph) AddEdgeChecked(u, v int) error {
	return g.addEdge(u, v, false)
}

func (g *Graph) addEdge(u, v int, allowDup bool) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return errOutOfRange(u, v, len(g.adj))
	}
	if u == v {
		return errSelfLoop(u)
	}
	if g.HasEdge(u, v) {
		if allowDup {
			return nil
		}
		return errDuplicate(u, v)
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.m++
	return nil
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it was present.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.m--
	return true
}

// AddVertex appends an isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// Neighbors returns the sorted adjacency list of v. The returned slice is
// owned by the graph; callers must not modify it.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edges returns all edges as pairs (u, v) with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	g.VisitEdges(func(u, v int) {
		edges = append(edges, [2]int{u, v})
	})
	return edges
}

// VisitEdges calls fn for every edge (u, v) with u < v, in lexicographic
// order, without materializing an edge list. Prefer it over Edges in
// per-call paths that only need to scan the edges once.
func (g *Graph) VisitEdges(fn func(u, v int)) {
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int, len(g.adj)), m: g.m}
	for v, a := range g.adj {
		c.adj[v] = append([]int(nil), a...)
	}
	return c
}

// Equal reports whether g and h have identical vertex counts and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for v := range g.adj {
		if len(g.adj[v]) != len(h.adj[v]) {
			return false
		}
		for i, u := range g.adj[v] {
			if h.adj[v][i] != u {
				return false
			}
		}
	}
	return true
}

// String renders a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}

// Validate checks internal invariants (sorted lists, symmetry, no loops,
// consistent edge count). It is used by property tests and returns the first
// violation found.
func (g *Graph) Validate() error {
	count := 0
	for v, a := range g.adj {
		for i, u := range a {
			if u < 0 || u >= len(g.adj) {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && a[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, u)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency total %d", g.m, count)
	}
	return nil
}

// The edge errors of AddEdgeChecked, shared with CSRFromEdgesChecked.
func errOutOfRange(u, v, n int) error {
	return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
}

func errSelfLoop(u int) error { return fmt.Errorf("graph: self-loop at %d", u) }

func errDuplicate(u, v int) error { return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v) }

func insertSorted(a []int, x int) []int {
	i := sort.SearchInts(a, x)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = x
	return a
}

func removeSorted(a []int, x int) []int {
	i := sort.SearchInts(a, x)
	if i < len(a) && a[i] == x {
		return append(a[:i], a[i+1:]...)
	}
	return a
}
