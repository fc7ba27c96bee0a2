package gen

import (
	"fmt"
	"math"
	"math/rand"

	"localmds/internal/ding"
	"localmds/internal/graph"
)

// Kinds lists the workload names FromKind accepts, for CLI usage strings.
const Kinds = "ding|cactus|tree|cycle|grid|grids|outerplanar|cliquependants|gnp"

// gridsSide is the side of every component of the grids kind: a 12×12
// grid has 144 vertices and 264 edges, is planar, and reduces well under
// the pipeline, so tiling it keeps an instance near-planar and
// component-parallel at any scale.
const gridsSide = 12

// FromKind builds one of the named CLI workloads as a CSR — the single
// dispatch shared by cmd/graphgen, cmd/mdsrun and the service's
// generator requests. No *graph.Graph is built on the way: every kind
// is one CSRFromEdges over the generator's edge list (grids tiles one
// such CSR). Generator panics (gen and graph reject impossible
// sizes that way) are converted into errors so invalid flag combinations
// exit cleanly instead of dumping a stack trace. The grid kind uses the
// largest square with at most n vertices; grids is ⌊n/144⌋ disjoint 12×12
// grids (n >= 144); tParam only affects ding, p only gnp.
func FromKind(kind string, n, tParam int, p float64, rng *rand.Rand) (c *graph.CSR, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("cannot generate %q with n=%d: %v", kind, n, r)
		}
	}()
	var nv int
	var edges [][2]int
	switch kind {
	case "ding":
		return ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: n, T: tParam}, rng)
	case "cactus":
		nv, edges = cactusEdges(n, rng)
	case "tree":
		nv, edges = n, treeEdges(n, rng)
	case "cycle":
		nv, edges = n, cycleEdges(n)
	case "grid":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		nv, edges = side*side, gridEdges(side, side)
	case "grids":
		return disjointGrids(n)
	case "outerplanar":
		nv, edges = n, outerplanarEdges(n, rng)
	case "cliquependants":
		nv, edges = cliquePendantsEdges(n / 2)
	case "gnp":
		nv, edges = n, gnpConnectedEdges(n, p, rng)
	default:
		return nil, fmt.Errorf("unknown generator %q (want %s)", kind, Kinds)
	}
	return graph.CSRFromEdges(nv, edges), nil
}

// disjointGrids returns ⌊n/144⌋ disjoint copies of Grid(12, 12), copy i
// on vertices 144i … 144i+143. It tiles the one frozen component's
// arrays straight into the result.
func disjointGrids(n int) (*graph.CSR, error) {
	one := graph.CSRFromEdges(gridsSide*gridsSide, gridEdges(gridsSide, gridsSide))
	nv, arcs := one.N(), len(one.Targets)
	if n < nv {
		return nil, fmt.Errorf("cannot generate \"grids\" with n=%d: need n >= %d (one %dx%d component)", n, nv, gridsSide, gridsSide)
	}
	k := n / nv
	if k > math.MaxInt32/arcs {
		return nil, fmt.Errorf("cannot generate \"grids\" with n=%d: %d arcs exceed the CSR's int32 range", n, k*arcs)
	}
	c := &graph.CSR{Offsets: make([]int32, k*nv+1), Targets: make([]int32, k*arcs)}
	for i := 0; i < k; i++ {
		base, off := int32(i*nv), int32(i*arcs)
		for v, o := range one.Offsets[:nv] {
			c.Offsets[i*nv+v] = off + o
		}
		for j, u := range one.Targets {
			c.Targets[i*arcs+j] = base + u
		}
	}
	c.Offsets[k*nv] = int32(k * arcs)
	return c, nil
}
