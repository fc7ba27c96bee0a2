// Package spqr implements the SPQR tree (triconnected component
// decomposition) of a 2-connected graph used by the paper's analysis of
// interesting 2-cuts (§5.3): S-nodes are cycles, P-nodes dipoles (two
// vertices with >= 3 parallel edges), R-nodes 3-connected skeletons. The
// construction is the correctness-first recursive splitting algorithm
// (quadratic), followed by canonicalization (merging adjacent same-type S/P
// nodes); the paper uses SPQR trees only analytically, so asymptotic
// construction speed is irrelevant here.
//
// The package also provides the Proposition 5.7 candidate enumeration
// (every 2-cut appears in the tree in one of four positions) and the
// Proposition 5.8 style partition of interesting cuts into at most three
// pairwise non-crossing families.
package spqr

import (
	"fmt"
	"maps"
	"slices"

	"localmds/internal/cuts"
	"localmds/internal/graph"
)

// NodeType classifies a tree node's skeleton.
type NodeType int

// Node types: S = cycle, P = dipole, R = 3-connected.
const (
	SNode NodeType = iota + 1
	PNode
	RNode
)

func (t NodeType) String() string {
	switch t {
	case SNode:
		return "S"
	case PNode:
		return "P"
	case RNode:
		return "R"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Edge is a skeleton edge between two original vertex labels. Virtual
// edges tie the node to an adjacent tree node: the twin edge with the same
// pair lives in exactly one other node. Twin is the global edge identifier
// of that partner (-1 for real edges).
type Edge struct {
	U, V    int
	Virtual bool
	ID      int
	Twin    int
}

// Node is one skeleton of the decomposition.
type Node struct {
	Type  NodeType
	Edges []Edge
}

// Vertices returns the sorted distinct vertex labels of the skeleton.
func (n *Node) Vertices() []int {
	var vs []int
	for _, e := range n.Edges {
		vs = append(vs, e.U, e.V)
	}
	return graph.Dedup(vs)
}

// VirtualEdges returns the node's virtual edges.
func (n *Node) VirtualEdges() []Edge {
	var out []Edge
	for _, e := range n.Edges {
		if e.Virtual {
			out = append(out, e)
		}
	}
	return out
}

// Tree is an SPQR tree: nodes plus adjacency derived from twin pairs.
type Tree struct {
	Nodes []*Node
	// Adj[i] lists the node indices adjacent to node i (one entry per
	// shared virtual-edge pair).
	Adj [][]int
}

// Decompose builds the SPQR tree of g, which must be simple, 2-connected,
// and have at least three vertices.
func Decompose(g *graph.Graph) (*Tree, error) {
	if g.N() < 3 {
		return nil, fmt.Errorf("spqr: need at least 3 vertices, got %d", g.N())
	}
	if !is2Connected(g) {
		return nil, fmt.Errorf("spqr: graph is not 2-connected")
	}
	d := &decomposer{nextID: 0}
	edges := make([]Edge, 0, g.M())
	g.VisitEdges(func(u, v int) {
		edges = append(edges, Edge{U: u, V: v, ID: d.fresh(), Twin: -1})
	})
	nodes := d.split(edges)
	t := &Tree{Nodes: nodes}
	t.rebuildAdj()
	t.canonicalize()
	return t, nil
}

type decomposer struct {
	nextID int
}

func (d *decomposer) fresh() int {
	id := d.nextID
	d.nextID++
	return id
}

// split recursively decomposes a multigraph given by its edge list.
func (d *decomposer) split(edges []Edge) []*Node {
	verts := edgeVertices(edges)
	if len(verts) == 2 {
		return []*Node{{Type: PNode, Edges: edges}}
	}
	if isSimpleCycle(edges, verts) {
		return []*Node{{Type: SNode, Edges: edges}}
	}
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			u, v := verts[i], verts[j]
			comps, directs := splitGroups(edges, u, v)
			bridges := len(comps) + len(directs)
			switch {
			case len(comps) >= 2 && bridges == 2:
				// Binary split: two components, no direct edges.
				a, b := d.fresh(), d.fresh()
				left := append(append([]Edge(nil), comps[0]...), Edge{U: u, V: v, Virtual: true, ID: a, Twin: b})
				right := append(append([]Edge(nil), comps[1]...), Edge{U: u, V: v, Virtual: true, ID: b, Twin: a})
				return append(d.split(left), d.split(right)...)
			case bridges >= 3 && len(comps) >= 1:
				// P-node hub: one virtual edge per component, direct
				// edges stay in the hub.
				hub := &Node{Type: PNode}
				hub.Edges = append(hub.Edges, directs...)
				var out []*Node
				for _, comp := range comps {
					a, b := d.fresh(), d.fresh()
					hub.Edges = append(hub.Edges, Edge{U: u, V: v, Virtual: true, ID: a, Twin: b})
					child := append(append([]Edge(nil), comp...), Edge{U: u, V: v, Virtual: true, ID: b, Twin: a})
					out = append(out, d.split(child)...)
				}
				return append(out, hub)
			}
		}
	}
	return []*Node{{Type: RNode, Edges: edges}}
}

// splitGroups partitions the edges with respect to the pair {u, v}:
// components of the multigraph after deleting u and v (each component's
// edges, including its edges to u and v), and the direct u-v edges.
func splitGroups(edges []Edge, u, v int) (comps [][]Edge, directs []Edge) {
	// Union-find over edge indices: edges sharing an endpoint other than
	// u, v are grouped.
	parent := make([]int, len(edges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	byVertex := make(map[int]int) // vertex (not u,v) -> representative edge
	for i, e := range edges {
		if isDirect(e, u, v) {
			continue
		}
		for _, w := range []int{e.U, e.V} {
			if w == u || w == v {
				continue
			}
			if first, ok := byVertex[w]; ok {
				union(first, i)
			} else {
				byVertex[w] = i
			}
		}
	}
	groups := make(map[int][]Edge)
	for i, e := range edges {
		if isDirect(e, u, v) {
			directs = append(directs, e)
			continue
		}
		groups[find(i)] = append(groups[find(i)], e)
	}
	for _, k := range slices.Sorted(maps.Keys(groups)) {
		comps = append(comps, groups[k])
	}
	return comps, directs
}

func isDirect(e Edge, u, v int) bool {
	return (e.U == u && e.V == v) || (e.U == v && e.V == u)
}

func edgeVertices(edges []Edge) []int {
	var vs []int
	for _, e := range edges {
		vs = append(vs, e.U, e.V)
	}
	return graph.Dedup(vs)
}

// isSimpleCycle reports whether the edge multiset forms a single simple
// cycle on the given vertices: every vertex has degree exactly two, no
// parallel edges, and the edges are connected.
func isSimpleCycle(edges []Edge, verts []int) bool {
	if len(edges) != len(verts) || len(verts) < 3 {
		return false
	}
	deg := make(map[int]int)
	seen := make(map[[2]int]bool)
	for _, e := range edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			return false // parallel edges
		}
		seen[[2]int{a, b}] = true
		deg[e.U]++
		deg[e.V]++
	}
	for _, v := range verts {
		if deg[v] != 2 {
			return false
		}
	}
	// Connectivity: walk from one edge.
	return connectedEdges(edges)
}

func connectedEdges(edges []Edge) bool {
	if len(edges) == 0 {
		return true
	}
	adj := make(map[int][]int)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	start := edges[0].U
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return len(seen) == len(adj)
}

// is2Connected reports 2-connectivity of a simple graph: connected, at
// least 3 vertices, and no articulation points.
func is2Connected(g *graph.Graph) bool {
	if !g.Connected() || g.N() < 3 {
		return false
	}
	return len(cuts.ArticulationPoints(g)) == 0
}
