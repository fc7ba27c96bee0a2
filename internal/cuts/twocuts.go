package cuts

import (
	"maps"
	"slices"

	"localmds/internal/graph"
)

// TwoCut is an unordered minimal 2-cut {U, V} with U < V.
type TwoCut struct {
	U, V int
}

// IsMinimalTwoCut reports whether {u, v} is a minimal 2-cut of g in the
// paper's sense (§2): removing the pair increases the number of components,
// and no proper subset is a cut with the same components. Concretely, the
// pair must separate, and each of u and v must have neighbors in at least
// two distinct components of g - {u, v} — otherwise deleting only the other
// vertex yields the same separation, contradicting minimality.
func IsMinimalTwoCut(g *graph.Graph, u, v int) bool {
	if u == v {
		return false
	}
	compOf, num := pairComponents(g, u, v)
	if num < 2 {
		return false
	}
	return seesTwoComponents(g, u, compOf) && seesTwoComponents(g, v, compOf)
}

// pairComponents labels the components of g - {u, v}; the cut vertices get
// label -1. It returns the labels and the component count.
func pairComponents(g *graph.Graph, u, v int) ([]int, int) {
	n := g.N()
	compOf := make([]int, n)
	for i := range compOf {
		compOf[i] = -2
	}
	compOf[u], compOf[v] = -1, -1
	num := 0
	for s := 0; s < n; s++ {
		if compOf[s] != -2 {
			continue
		}
		compOf[s] = num
		queue := []int{s}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range g.Neighbors(x) {
				if compOf[y] == -2 {
					compOf[y] = num
					queue = append(queue, y)
				}
			}
		}
		num++
	}
	return compOf, num
}

// seesTwoComponents reports whether w has neighbors in at least two
// distinct components per the labeling compOf.
func seesTwoComponents(g *graph.Graph, w int, compOf []int) bool {
	first := -1
	for _, y := range g.Neighbors(w) {
		c := compOf[y]
		if c < 0 {
			continue
		}
		if first < 0 {
			first = c
		} else if c != first {
			return true
		}
	}
	return false
}

// MinimalTwoCuts enumerates every minimal 2-cut of g by testing all vertex
// pairs (quadratic in n times a BFS; correctness-first).
func MinimalTwoCuts(g *graph.Graph) []TwoCut {
	var out []TwoCut
	n := g.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if IsMinimalTwoCut(g, u, v) {
				out = append(out, TwoCut{U: u, V: v})
			}
		}
	}
	return out
}

// Crossing reports whether two 2-cuts cross (§5.3): the vertices of c1 lie
// in different components of g - c2, and vice versa.
func Crossing(g *graph.Graph, c1, c2 TwoCut) bool {
	return separatedBy(g, c1.U, c1.V, c2) && separatedBy(g, c2.U, c2.V, c1)
}

// separatedBy reports whether a and b are in different components of
// g - {c.U, c.V}. Vertices of the cut itself are never separated.
func separatedBy(g *graph.Graph, a, b int, c TwoCut) bool {
	if a == c.U || a == c.V || b == c.U || b == c.V {
		return false
	}
	n := g.N()
	seen := make([]bool, n)
	seen[c.U], seen[c.V] = true, true
	queue := []int{a}
	seen[a] = true
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == b {
			return false
		}
		for _, y := range g.Neighbors(x) {
			if !seen[y] {
				seen[y] = true
				queue = append(queue, y)
			}
		}
	}
	return true
}

// GloballyInteresting reports whether v is an interesting vertex of the
// global 2-cut {u, v} per §5.3: N[v] ⊈ N[u], and at least two components of
// g - {u, v} contain a vertex non-adjacent to u.
func GloballyInteresting(g *graph.Graph, v, u int) bool {
	if !IsMinimalTwoCut(g, u, v) {
		return false
	}
	nv := g.ClosedNeighborhood(v)
	nu := g.ClosedNeighborhood(u)
	if graph.IsSubset(nv, nu) {
		return false
	}
	return componentsWithNonNeighborOfU(g, u, v) >= 2
}

// componentsWithNonNeighborOfU counts components of g - {u, v} containing a
// vertex not adjacent to u.
func componentsWithNonNeighborOfU(g *graph.Graph, u, v int) int {
	n := g.N()
	seen := make([]bool, n)
	seen[u], seen[v] = true, true
	count := 0
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		has := false
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			if !g.HasEdge(x, u) {
				has = true
			}
			for _, y := range g.Neighbors(x) {
				if y != u && y != v && !seen[y] {
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
		if has {
			count++
		}
	}
	return count
}

// GloballyInterestingVertices returns all vertices that are interesting in
// some global minimal 2-cut of g, ascending.
func GloballyInterestingVertices(g *graph.Graph) []int {
	interesting := make(map[int]bool)
	for _, c := range MinimalTwoCuts(g) {
		if GloballyInteresting(g, c.U, c.V) {
			interesting[c.U] = true
		}
		if GloballyInteresting(g, c.V, c.U) {
			interesting[c.V] = true
		}
	}
	return slices.Sorted(maps.Keys(interesting))
}
