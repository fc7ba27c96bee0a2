// Package gen provides deterministic, seeded graph generators for the
// workloads used across the localmds experiments: elementary families
// (paths, cycles, stars, cliques, bipartite, grids), random trees, cacti and
// outerplanar graphs (which are K_{2,3}- and K_4-minor-free families), the
// adversarial instances discussed in the paper (long cycles, the
// clique-plus-pendants graph of §4), and Erdős–Rényi graphs for negative
// controls.
//
// All randomized generators take an explicit *rand.Rand so runs are
// reproducible; none touch global state.
package gen

import (
	"fmt"
	"math/rand"

	"localmds/internal/graph"
)

// Path returns the path P_n on n vertices (n-1 edges).
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle C_n; it panics for n < 3.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: cycle needs n >= 3, got %d", n))
	}
	g := Path(n)
	g.AddEdge(n-1, 0)
	return g
}

// Star returns K_{1,n}: center 0 joined to leaves 1..n.
// Only tests call it, in core, cuts, gen, graph, local, mds and minor.
func Star(n int) *graph.Graph {
	g := graph.New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the clique K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// CompleteBipartite returns K_{s,t} with parts {0..s-1} and {s..s+t-1}.
// Only tests call it, in core, gen, graph, mds, minor and spqr.
func CompleteBipartite(s, t int) *graph.Graph {
	g := graph.New(s + t)
	for i := 0; i < s; i++ {
		for j := 0; j < t; j++ {
			g.AddEdge(i, s+j)
		}
	}
	return g
}

// Grid returns the rows×cols grid graph, a canonical planar instance.
func Grid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// RandomTree returns a uniformly random labelled tree on n vertices via a
// random Prüfer-like attachment: vertex i (i >= 1) attaches to a uniform
// earlier vertex. This yields random recursive trees — not uniform over all
// labelled trees, but well-spread and cheap, which is what the workloads
// need.
func RandomTree(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i))
	}
	return g
}

// Caterpillar returns a caterpillar tree: a spine path of spine vertices
// with legs pendant leaves attached to each spine vertex.
// Only tests call it, in gen, graph and minor.
func Caterpillar(spine, legs int) *graph.Graph {
	g := graph.New(spine + spine*legs)
	for i := 0; i+1 < spine; i++ {
		g.AddEdge(i, i+1)
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			g.AddEdge(i, next)
			next++
		}
	}
	return g
}

// BinaryTree returns the complete binary tree with the given number of
// levels (level 1 = single root).
// Only tests call it, in gen and graph.
func BinaryTree(levels int) *graph.Graph {
	n := (1 << levels) - 1
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, (i-1)/2)
	}
	return g
}

// RandomCactus returns a connected cactus graph — every edge lies on at most
// one cycle — on approximately n vertices. Cacti are K_4-minor-free and
// K_{2,3}-minor-free, hence in every class C_t (t >= 3) studied by the
// paper. The construction repeatedly glues cycles and pendant edges onto a
// growing graph at random attachment vertices.
func RandomCactus(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(1)
	for g.N() < n {
		attach := rng.Intn(g.N())
		if rng.Intn(2) == 0 {
			// Pendant edge.
			v := g.AddVertex()
			g.AddEdge(attach, v)
			continue
		}
		// A cycle of length 3..6 glued at attach.
		clen := 3 + rng.Intn(4)
		prev := attach
		first := -1
		for i := 0; i < clen-1; i++ {
			v := g.AddVertex()
			if first < 0 {
				first = v
			}
			g.AddEdge(prev, v)
			prev = v
		}
		g.AddEdge(prev, attach)
	}
	return g
}

// MaximalOuterplanar returns a maximal outerplanar graph (a triangulation
// of a polygon) on n >= 3 vertices: the cycle 0..n-1 plus a random
// fan/ear triangulation of its interior. Outerplanar graphs are exactly the
// {K_4, K_{2,3}}-minor-free graphs.
func MaximalOuterplanar(n int, rng *rand.Rand) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: outerplanar needs n >= 3, got %d", n))
	}
	g := Cycle(n)
	// Triangulate the polygon by recursive random ear splitting. Each
	// polygon arc [i..j] (along the cycle) is split at a random interior
	// vertex k with chords (i,k), (k,j) as needed.
	var split func(verts []int)
	split = func(verts []int) {
		if len(verts) <= 3 {
			return
		}
		i, j := 0, len(verts)-1
		k := 1 + rng.Intn(len(verts)-2)
		if !g.HasEdge(verts[i], verts[k]) {
			g.AddEdge(verts[i], verts[k])
		}
		if !g.HasEdge(verts[k], verts[j]) {
			g.AddEdge(verts[k], verts[j])
		}
		split(verts[:k+1])
		split(verts[k:])
	}
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	split(verts)
	return g
}

// CliquePendants returns the adversarial instance from §4 of the paper: a
// clique on q vertices {0..q-1} where, for each clique vertex v != 0, a new
// pendant vertex x_v is attached to both 0 and v. MDS of this graph is 1
// (vertex 0 dominates everything), yet every clique vertex lies in a minimal
// 2-cut {0, v}, so Ω(n) vertices live in 2-cuts — motivating the paper's
// "interesting vertex" restriction.
func CliquePendants(q int) *graph.Graph {
	if q < 2 {
		panic(fmt.Sprintf("gen: CliquePendants needs q >= 2, got %d", q))
	}
	g := Complete(q)
	for v := 1; v < q; v++ {
		x := g.AddVertex()
		g.AddEdge(x, 0)
		g.AddEdge(x, v)
	}
	return g
}

// GNP returns an Erdős–Rényi G(n, p) graph — the negative control used to
// show which guarantees are class-specific.
// Only tests call it, in gen, graph, graphio, local and mds.
func GNP(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// GNPConnected returns a connected G(n, p) sample by adding a uniform random
// spanning-tree skeleton first.
func GNPConnected(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := RandomTree(n, rng)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) && rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RegularLike returns a connected graph where every vertex has degree
// exactly d when n*d is even and n > d (a circulant construction): vertex i
// is joined to i±1, i±2, ..., i±d/2 (and the antipode if d is odd).
func RegularLike(n, d int) (*graph.Graph, error) {
	if d >= n {
		return nil, fmt.Errorf("gen: degree %d must be < n = %d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: n*d must be even, got n=%d d=%d", n, d)
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for k := 1; k <= d/2; k++ {
			j := (i + k) % n
			if !g.HasEdge(i, j) {
				g.AddEdge(i, j)
			}
		}
	}
	if d%2 == 1 {
		for i := 0; i < n/2; i++ {
			j := (i + n/2) % n
			if !g.HasEdge(i, j) {
				g.AddEdge(i, j)
			}
		}
	}
	return g, nil
}

// Theta returns the theta graph: two terminal vertices joined by k
// internally disjoint paths of the given lengths (number of edges each,
// all >= 1, at most one length-1 path). Theta graphs with k paths contain a
// K_{2,k} minor and are handy positive controls for the minor tester.
// Only tests call it, in gen, graph, mds, minor and spqr.
func Theta(lengths []int) (*graph.Graph, error) {
	ones := 0
	for _, l := range lengths {
		if l < 1 {
			return nil, fmt.Errorf("gen: theta path length %d < 1", l)
		}
		if l == 1 {
			ones++
		}
	}
	if ones > 1 {
		return nil, fmt.Errorf("gen: theta allows at most one length-1 path, got %d", ones)
	}
	g := graph.New(2) // 0 and 1 are the terminals
	for _, l := range lengths {
		prev := 0
		for i := 0; i < l-1; i++ {
			v := g.AddVertex()
			g.AddEdge(prev, v)
			prev = v
		}
		g.AddEdge(prev, 1)
	}
	return g, nil
}

// TreePlusChords returns a random tree on n vertices with extra chords
// added between vertices at tree-distance at most span. With small span
// this stays sparse and tree-like (bounded treewidth in practice) while
// exercising non-tree code paths.
// Only tests call it, in gen and graph.
func TreePlusChords(n, chords, span int, rng *rand.Rand) *graph.Graph {
	g := RandomTree(n, rng)
	for added := 0; added < chords; {
		v := rng.Intn(n)
		ball := g.Ball(v, span)
		u := ball[rng.Intn(len(ball))]
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
			added++
		} else {
			added++ // count attempts to guarantee termination
		}
	}
	return g
}
