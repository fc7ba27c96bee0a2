package spqr

import (
	"fmt"
	"sort"
)

// rebuildAdj recomputes tree adjacency from twin pairs.
func (t *Tree) rebuildAdj() {
	owner := make(map[int]int) // edge ID -> node index
	for i, n := range t.Nodes {
		for _, e := range n.Edges {
			owner[e.ID] = i
		}
	}
	t.Adj = make([][]int, len(t.Nodes))
	for i, n := range t.Nodes {
		for _, e := range n.Edges {
			if e.Virtual {
				j, ok := owner[e.Twin]
				if ok && j != i {
					t.Adj[i] = append(t.Adj[i], j)
				}
			}
		}
	}
}

// canonicalize repeatedly merges adjacent same-type S/S and P/P node pairs
// until none remain, yielding the unique SPQR tree.
func (t *Tree) canonicalize() {
	for {
		merged := false
		for i := 0; i < len(t.Nodes) && !merged; i++ {
			ni := t.Nodes[i]
			if ni == nil || (ni.Type != SNode && ni.Type != PNode) {
				continue
			}
			for _, e := range ni.Edges {
				if !e.Virtual {
					continue
				}
				j := t.nodeOwning(e.Twin)
				if j < 0 || j == i || t.Nodes[j].Type != ni.Type {
					continue
				}
				t.merge(i, j, e.ID, e.Twin)
				merged = true
				break
			}
		}
		if !merged {
			break
		}
	}
	// Compact nil slots.
	var nodes []*Node
	for _, n := range t.Nodes {
		if n != nil {
			nodes = append(nodes, n)
		}
	}
	t.Nodes = nodes
	t.rebuildAdj()
	for _, n := range t.Nodes {
		n.normalize()
	}
}

func (t *Tree) nodeOwning(edgeID int) int {
	for i, n := range t.Nodes {
		if n == nil {
			continue
		}
		for _, e := range n.Edges {
			if e.ID == edgeID {
				return i
			}
		}
	}
	return -1
}

// merge fuses node j into node i, dropping the twin virtual pair
// (idI in node i, idJ in node j).
func (t *Tree) merge(i, j, idI, idJ int) {
	var combined []Edge
	for _, e := range t.Nodes[i].Edges {
		if e.ID != idI {
			combined = append(combined, e)
		}
	}
	for _, e := range t.Nodes[j].Edges {
		if e.ID != idJ {
			combined = append(combined, e)
		}
	}
	t.Nodes[i].Edges = combined
	t.Nodes[j] = nil
}

// normalize orders skeleton edges canonically (by endpoints, real first).
func (n *Node) normalize() {
	for i := range n.Edges {
		if n.Edges[i].U > n.Edges[i].V {
			n.Edges[i].U, n.Edges[i].V = n.Edges[i].V, n.Edges[i].U
		}
	}
	sort.Slice(n.Edges, func(a, b int) bool {
		ea, eb := n.Edges[a], n.Edges[b]
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		if ea.V != eb.V {
			return ea.V < eb.V
		}
		if ea.Virtual != eb.Virtual {
			return !ea.Virtual
		}
		return ea.ID < eb.ID
	})
}

// Validate checks the structural invariants of a canonical SPQR tree:
// every skeleton matches its declared type, twins pair up consistently on
// the same vertex pair, the tree is acyclic and connected, and no two
// adjacent nodes are both S or both P.
func (t *Tree) Validate() error {
	owner := make(map[int]int)
	edgeByID := make(map[int]Edge)
	for i, n := range t.Nodes {
		verts := n.Vertices()
		switch n.Type {
		case SNode:
			if !isSimpleCycle(n.Edges, verts) {
				return fmt.Errorf("spqr: S-node %d is not a cycle", i)
			}
		case PNode:
			if len(verts) != 2 || len(n.Edges) < 3 {
				return fmt.Errorf("spqr: P-node %d is not a dipole with >= 3 edges", i)
			}
		case RNode:
			if len(verts) < 4 {
				return fmt.Errorf("spqr: R-node %d has only %d vertices", i, len(verts))
			}
		default:
			return fmt.Errorf("spqr: node %d has unknown type", i)
		}
		for _, e := range n.Edges {
			if _, dup := owner[e.ID]; dup {
				return fmt.Errorf("spqr: duplicate edge id %d", e.ID)
			}
			owner[e.ID] = i
			edgeByID[e.ID] = e
		}
	}
	treeEdges := 0
	for i, n := range t.Nodes {
		for _, e := range n.Edges {
			if !e.Virtual {
				continue
			}
			twin, ok := edgeByID[e.Twin]
			if !ok {
				return fmt.Errorf("spqr: virtual edge %d has missing twin %d", e.ID, e.Twin)
			}
			if twin.Twin != e.ID {
				return fmt.Errorf("spqr: twin pointers of %d and %d disagree", e.ID, e.Twin)
			}
			a1, b1 := e.U, e.V
			a2, b2 := twin.U, twin.V
			if a1 > b1 {
				a1, b1 = b1, a1
			}
			if a2 > b2 {
				a2, b2 = b2, a2
			}
			if a1 != a2 || b1 != b2 {
				return fmt.Errorf("spqr: twins %d/%d on different vertex pairs", e.ID, e.Twin)
			}
			j := owner[e.Twin]
			if j == i {
				return fmt.Errorf("spqr: self-twin in node %d", i)
			}
			if t.Nodes[i].Type == t.Nodes[j].Type && t.Nodes[i].Type != RNode {
				return fmt.Errorf("spqr: adjacent %v nodes %d and %d", t.Nodes[i].Type, i, j)
			}
			treeEdges++
		}
	}
	if treeEdges%2 != 0 {
		return fmt.Errorf("spqr: odd count of virtual edge endpoints")
	}
	if len(t.Nodes) > 0 && treeEdges/2 != len(t.Nodes)-1 {
		return fmt.Errorf("spqr: %d tree edges for %d nodes (not a tree)", treeEdges/2, len(t.Nodes))
	}
	return nil
}

// CandidatePair is a vertex pair the tree exposes as a potential 2-cut,
// with the Proposition 5.7 position that exposes it.
type CandidatePair struct {
	U, V   int
	Origin string // "R-virtual", "P-node", "S-virtual", "S-nonadjacent"
}

// CandidateTwoCuts enumerates the Proposition 5.7 candidate positions:
// endpoints of R-node virtual edges, P-node pairs, endpoints of S-node
// virtual edges, and non-adjacent S-node vertex pairs. Every 2-cut of the
// represented graph appears among them.
func (t *Tree) CandidateTwoCuts() []CandidatePair {
	var out []CandidatePair
	seen := make(map[[2]int]bool)
	add := func(u, v int, origin string) {
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, CandidatePair{U: u, V: v, Origin: origin})
	}
	for _, n := range t.Nodes {
		switch n.Type {
		case RNode:
			for _, e := range n.VirtualEdges() {
				add(e.U, e.V, "R-virtual")
			}
		case PNode:
			vs := n.Vertices()
			if len(n.VirtualEdges()) >= 2 || len(n.Edges) >= 3 {
				add(vs[0], vs[1], "P-node")
			}
		case SNode:
			for _, e := range n.VirtualEdges() {
				add(e.U, e.V, "S-virtual")
			}
			vs := n.Vertices()
			adjacent := make(map[[2]int]bool)
			for _, e := range n.Edges {
				a, b := e.U, e.V
				if a > b {
					a, b = b, a
				}
				adjacent[[2]int{a, b}] = true
			}
			for i := 0; i < len(vs); i++ {
				for j := i + 1; j < len(vs); j++ {
					if !adjacent[[2]int{vs[i], vs[j]}] {
						add(vs[i], vs[j], "S-nonadjacent")
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// CountTypes returns how many S, P, and R nodes the tree has.
func (t *Tree) CountTypes() (s, p, r int) {
	for _, n := range t.Nodes {
		switch n.Type {
		case SNode:
			s++
		case PNode:
			p++
		case RNode:
			r++
		}
	}
	return s, p, r
}
