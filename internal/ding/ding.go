// Package ding implements the structural ingredients of Guoli Ding's
// characterization of graphs without large K_{2,t} minors
// (arXiv:1702.01355), which the paper uses in Lemma 4.2: fans and strips,
// the gadgets of Ding's augmentations (Proposition 5.15: every
// K_{2,t}-minor-free graph is an augmentation of a graph on at most m(t)
// vertices by disjoint fans and strips).
//
// The package builds provably K_{2,t}-minor-free graphs from these gadgets
// as experiment workloads (GenerateCSR, and Generate for an adjacency-list
// view): each gadget emits its edges into one list, built into a CSR
// once. Its tests check the type-I conditions of §5.4 on fans and strips;
// gen's tests check every generator against its per-edge reference.
package ding

import (
	"fmt"

	"localmds/internal/graph"
)

// Fan describes a fan graph: a center adjacent to every vertex of a path
// ("blades"). Fans are maximal outerplanar, hence K_{2,3}-minor-free, and
// appear as one of the two attachment gadgets in Ding's augmentations.
type Fan struct {
	G      *graph.Graph
	Center int // the fan's center corner (paper: vertex a)
	End1   int // first path endpoint corner (paper: vertex b)
	End2   int // last path endpoint corner (paper: vertex c)
}

// NewFan builds a fan of the given length (number of path vertices, >= 2):
// vertices 0 = center, 1..length = the path. The paper measures fan length
// in chords; a length-k path fan has k-2 chords plus the two cycle edges at
// the center. Generate glues fans through the same edge emitter; only
// tests call NewFan: ding's and gen's.
func NewFan(length int) (*Fan, error) {
	if length < 2 {
		return nil, fmt.Errorf("ding: fan length %d < 2", length)
	}
	return &Fan{G: gadgetGraph(length+1, fanEdges, length), Center: 0, End1: 1, End2: length}, nil
}

// Strip describes a strip: a ladder-like type-I graph with four corners.
// Ding proves strips are K_{2,5}-minor-free; long strips force local 2-cuts
// at their rungs, which is exactly the phenomenon Lemma 4.2 exploits.
type Strip struct {
	G *graph.Graph
	// Corners a, b, c, d: a-...-c is the top path, b-...-d the bottom path.
	A, B, C, D int
}

// NewStrip builds a ladder strip with the given number of rungs (>= 2):
// top path x_0..x_{k-1}, bottom path y_0..y_{k-1}, rung edges x_i y_i.
// Vertex x_i is 2i and y_i is 2i+1, so the corners (a, b, c, d) =
// (x_0, y_0, x_{k-1}, y_{k-1}) are 0, 1, 2k-2 and 2k-1. Generate glues
// strips through the same edge emitter; only tests call NewStrip: ding's,
// gen's and the root package's benchmarks.
func NewStrip(rungs int) (*Strip, error) {
	if rungs < 2 {
		return nil, fmt.Errorf("ding: strip needs >= 2 rungs, got %d", rungs)
	}
	return &Strip{G: gadgetGraph(2*rungs, stripEdges, rungs), A: 0, B: 1, C: 2*rungs - 2, D: 2*rungs - 1}, nil
}

// gadgetGraph builds one gadget on its own: the graph on n vertices whose
// edges emitEdges emits for the gadget's size parameter.
func gadgetGraph(n int, emitEdges func(size int, emit func(u, v int)), size int) *graph.Graph {
	var edges [][2]int
	emitEdges(size, func(u, v int) { edges = append(edges, [2]int{u, v}) })
	return graph.FromCSR(graph.CSRFromEdges(n, edges))
}
