// Package minor implements exact minor detection for the complete bipartite
// minors K_{1,t} and K_{2,t} that parameterize the paper's graph classes,
// plus verification of explicit minor models. Detection is
// correctness-first and exponential (it enumerates connected branch sets),
// intended to certify generator outputs and small fixtures; the experiment
// generators in internal/ding produce instances that are free by
// construction, and the tests here cross-check them at small sizes.
//
// The K_{2,t} test uses the Menger reformulation: G has a K_{2,t} minor iff
// there exist disjoint connected sets A, B ⊆ V(G) with t internally
// vertex-disjoint A–B paths, each with at least one interior vertex. Each
// such path yields one of the t middle branch sets of K_{2,t} and vice
// versa (every middle branch set is connected and adjacent to both hubs, so
// it contains such a path).
//
// No production code imports the package: it stays outside the tests
// because three test files in other packages certify with it — the root
// bench_test.go, ding/ding_test.go and gen/gen_test.go.
package minor

import (
	"fmt"
	"math/bits"

	"localmds/internal/graph"
)

// MaxExactVertices is the largest graph the exact testers accept. The
// enumeration is exponential in the worst case; 22 keeps worst-case subset
// counts around 4M, which only dense graphs approach.
const MaxExactVertices = 22

// ErrTooLarge is returned when an exact test is asked about a graph larger
// than MaxExactVertices.
var ErrTooLarge = fmt.Errorf("minor: graph exceeds %d vertices; exact test refused", MaxExactVertices)

// Model is an explicit K_{s,t} minor model: Hubs are the branch sets of the
// side-s vertices and Middles the branch sets of the side-t vertices.
type Model struct {
	Hubs    [][]int
	Middles [][]int
}

// HasK2tMinor reports whether g contains K_{2,t} as a minor, returning a
// certifying model on success. It requires t >= 1 and g.N() <=
// MaxExactVertices.
func HasK2tMinor(g *graph.Graph, t int) (*Model, bool, error) {
	if t < 1 {
		return nil, false, fmt.Errorf("minor: t = %d < 1", t)
	}
	n := g.N()
	if n > MaxExactVertices {
		return nil, false, ErrTooLarge
	}
	if n < t+2 {
		return nil, false, nil // K_{2,t} has t+2 vertices
	}
	adj := adjacencyMasks(g)
	subsets := connectedSubsets(adj)
	// Precompute open neighborhoods of each subset.
	nbr := make([]uint32, len(subsets))
	for i, s := range subsets {
		nbr[i] = neighborhoodMask(adj, s) &^ s
	}
	full := uint32(1)<<n - 1
	for i, a := range subsets {
		if bits.OnesCount32(nbr[i]) < t {
			continue
		}
		for j, b := range subsets {
			if a&b != 0 {
				continue
			}
			if bits.OnesCount32(nbr[j]&^a) < t || bits.OnesCount32(nbr[i]&^b) < t {
				continue
			}
			if bits.OnesCount32(full&^(a|b)) < t {
				continue
			}
			paths := disjointHubPaths(adj, n, a, b, t)
			if len(paths) >= t {
				m := &Model{
					Hubs:    [][]int{maskToSlice(a), maskToSlice(b)},
					Middles: pathsToMiddles(paths, t),
				}
				return m, true, nil
			}
		}
	}
	return nil, false, nil
}

// HasK1tMinor reports whether g contains K_{1,t} as a minor, returning a
// certifying model on success. G has a K_{1,t} minor iff some connected set
// A has at least t distinct outside neighbors.
func HasK1tMinor(g *graph.Graph, t int) (*Model, bool, error) {
	if t < 1 {
		return nil, false, fmt.Errorf("minor: t = %d < 1", t)
	}
	n := g.N()
	if n > MaxExactVertices {
		return nil, false, ErrTooLarge
	}
	if n < t+1 {
		return nil, false, nil
	}
	adj := adjacencyMasks(g)
	for _, a := range connectedSubsets(adj) {
		out := neighborhoodMask(adj, a) &^ a
		if bits.OnesCount32(out) >= t {
			middles := make([][]int, 0, t)
			for _, v := range maskToSlice(out)[:t] {
				middles = append(middles, []int{v})
			}
			return &Model{Hubs: [][]int{maskToSlice(a)}, Middles: middles}, true, nil
		}
	}
	return nil, false, nil
}

// VerifyKstModel checks that m is a valid K_{s,t} minor model in g: all
// branch sets are nonempty, pairwise disjoint, connected in g, and every
// hub set is adjacent to every middle set.
func VerifyKstModel(g *graph.Graph, m *Model) error {
	var all []int
	sets := append(append([][]int(nil), m.Hubs...), m.Middles...)
	for i, s := range sets {
		if len(s) == 0 {
			return fmt.Errorf("minor: branch set %d is empty", i)
		}
		comps := g.ComponentsOfSubset(s)
		if len(comps) != 1 {
			return fmt.Errorf("minor: branch set %d (%v) is not connected", i, s)
		}
		all = append(all, s...)
	}
	if len(graph.Dedup(all)) != len(all) {
		return fmt.Errorf("minor: branch sets are not pairwise disjoint")
	}
	for hi, h := range m.Hubs {
		for mi, mid := range m.Middles {
			if !setsAdjacent(g, h, mid) {
				return fmt.Errorf("minor: hub %d not adjacent to middle %d", hi, mi)
			}
		}
	}
	return nil
}

func setsAdjacent(g *graph.Graph, a, b []int) bool {
	for _, u := range a {
		for _, v := range b {
			if g.HasEdge(u, v) {
				return true
			}
		}
	}
	return false
}

// adjacencyMasks returns per-vertex neighbor bitmasks.
func adjacencyMasks(g *graph.Graph) []uint32 {
	adj := make([]uint32, g.N())
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			adj[v] |= 1 << uint(u)
		}
	}
	return adj
}

func neighborhoodMask(adj []uint32, s uint32) uint32 {
	var out uint32
	for m := s; m != 0; m &= m - 1 {
		out |= adj[bits.TrailingZeros32(m)]
	}
	return out
}

// connectedSubsets enumerates every nonempty connected vertex subset as a
// bitmask, using the standard "grow only with vertices larger than the
// seed's forbidden prefix" enumeration to list each subset exactly once.
func connectedSubsets(adj []uint32) []uint32 {
	n := len(adj)
	var out []uint32
	var grow func(cur, frontier, forbidden uint32)
	grow = func(cur, frontier, forbidden uint32) {
		out = append(out, cur)
		cand := frontier &^ forbidden
		for m := cand; m != 0; m &= m - 1 {
			v := bits.TrailingZeros32(m)
			bit := uint32(1) << uint(v)
			// Every candidate smaller than v is forbidden in the branch
			// where v is taken later, ensuring uniqueness.
			forbiddenHere := forbidden | (cand & (bit - 1))
			grow(cur|bit, (frontier|adj[v])&^(cur|bit), forbiddenHere)
		}
	}
	for v := 0; v < n; v++ {
		bit := uint32(1) << uint(v)
		// Vertices <= v are permanently forbidden so each subset is
		// enumerated exactly once, from its minimum vertex.
		lowBits := uint32(uint64(1)<<uint(v+1) - 1)
		grow(bit, adj[v]&^bit, lowBits)
	}
	return out
}

func maskToSlice(s uint32) []int {
	var out []int
	for m := s; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros32(m))
	}
	return out
}

// pathsToMiddles turns the interior vertex lists of hub-to-hub paths into t
// middle branch sets.
func pathsToMiddles(paths [][]int, t int) [][]int {
	middles := make([][]int, 0, t)
	for _, p := range paths[:t] {
		middles = append(middles, append([]int(nil), p...))
	}
	return middles
}
