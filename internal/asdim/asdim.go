// Package asdim implements the asymptotic-dimension machinery of §3: covers
// V(G) = B_0 ∪ ... ∪ B_d whose r-components are f(r)-bounded (weak diameter
// at most f(r)), cover verification, empirical control-function estimation,
// and the disjoint-neighborhood decomposition behind Lemma 5.2. The paper
// uses asymptotic dimension purely in the analysis (charging local cuts
// against MDS); this package makes those objects executable so the
// experiments can measure the constants the proofs only bound.
package asdim

import (
	"fmt"
	"sort"

	"localmds/internal/graph"
)

// Cover is a partition-style cover of V(G) into d+1 classes
// (B_0, ..., B_d). Classes may be empty; every vertex must appear in at
// least one class.
type Cover struct {
	Classes [][]int
}

// Verify checks that the classes cover every vertex of g and contain no
// out-of-range entries.
func (c *Cover) Verify(g *graph.Graph) error {
	covered := make([]bool, g.N())
	for i, class := range c.Classes {
		for _, v := range class {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("asdim: class %d contains out-of-range vertex %d", i, v)
			}
			covered[v] = true
		}
	}
	for v, ok := range covered {
		if !ok {
			return fmt.Errorf("asdim: vertex %d not covered", v)
		}
	}
	return nil
}

// BFSAnnulusCover builds the classic annulus cover witnessing small
// asymptotic dimension on tree-like classes: root each component at its
// smallest vertex, group BFS layers into annuli of the given width, and
// assign annulus k to class k mod parts. With parts = 2 this is the
// dimension-1 construction (alternating annuli); r-components of one class
// cannot hop the interleaved annuli of the other classes when r <= width.
func BFSAnnulusCover(g *graph.Graph, width, parts int) (*Cover, error) {
	if width < 1 {
		return nil, fmt.Errorf("asdim: annulus width %d < 1", width)
	}
	if parts < 1 {
		return nil, fmt.Errorf("asdim: parts %d < 1", parts)
	}
	cover := &Cover{Classes: make([][]int, parts)}
	for _, comp := range g.Components() {
		dist := g.BFSFrom(comp[0])
		for _, v := range comp {
			annulus := dist[v] / width
			class := annulus % parts
			cover.Classes[class] = append(cover.Classes[class], v)
		}
	}
	for i := range cover.Classes {
		sort.Ints(cover.Classes[i])
	}
	return cover, nil
}

// MaxRComponentWeakDiameter returns the largest weak diameter (distance
// measured in g) over the r-components of set — the quantity the control
// function f(r) must bound (§3: each r-component of B_i is f(r)-bounded).
func MaxRComponentWeakDiameter(g *graph.Graph, set []int, r int) int {
	max := 0
	for _, comp := range g.RComponents(set, r) {
		if d := g.WeakDiameter(comp); d > max {
			max = d
		}
	}
	return max
}

// ControlEstimate returns, for the given cover and radius r, the maximum
// over classes of the weak diameter of their r-components: the empirical
// value of f(r) this cover witnesses.
func ControlEstimate(g *graph.Graph, c *Cover, r int) int {
	max := 0
	for _, class := range c.Classes {
		if d := MaxRComponentWeakDiameter(g, class, r); d > max {
			max = d
		}
	}
	return max
}

// EstimatePoint is one empirical control-function sample.
type EstimatePoint struct {
	R        int
	Estimate int
}

// EstimateControlFunction sweeps radii and reports the empirical f(r)
// witnessed by the width-tuned annulus cover (width = r, parts classes).
func EstimateControlFunction(g *graph.Graph, radii []int, parts int) ([]EstimatePoint, error) {
	out := make([]EstimatePoint, 0, len(radii))
	for _, r := range radii {
		cover, err := BFSAnnulusCover(g, r, parts)
		if err != nil {
			return nil, err
		}
		out = append(out, EstimatePoint{R: r, Estimate: ControlEstimate(g, cover, r)})
	}
	return out, nil
}

// RSeparatedSubfamily greedily selects a subfamily of the given sets whose
// closed neighborhoods are pairwise disjoint, preferring earlier sets. It
// is the executable form of the "5-components are at distance >= 6 from
// each other" step in the proofs of Lemmas 3.2/3.3.
func RSeparatedSubfamily(g *graph.Graph, sets [][]int) [][]int {
	blocked := make(map[int]bool)
	var out [][]int
	for _, s := range sets {
		var closed []int
		for _, v := range s {
			closed = append(closed, g.Ball(v, 1)...)
		}
		closed = graph.Dedup(closed)
		conflict := false
		for _, v := range closed {
			if blocked[v] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		for _, v := range closed {
			blocked[v] = true
		}
		out = append(out, s)
	}
	return out
}
