// Package ding implements the structural ingredients of Guoli Ding's
// characterization of graphs without large K_{2,t} minors
// (arXiv:1702.01355), which the paper uses in Lemma 4.2: fans and strips,
// the gadgets of Ding's augmentations (Proposition 5.15: every
// K_{2,t}-minor-free graph is an augmentation of a graph on at most m(t)
// vertices by disjoint fans and strips).
//
// The package builds provably K_{2,t}-minor-free graphs from these gadgets
// as experiment workloads (Generate). Its tests check the type-I
// conditions of §5.4 on fans and strips.
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
// the center.
func NewFan(length int) (*Fan, error) {
	if length < 2 {
		return nil, fmt.Errorf("ding: fan length %d < 2", length)
	}
	g := graph.New(length + 1)
	for i := 1; i <= length; i++ {
		g.AddEdge(0, i)
		if i > 1 {
			g.AddEdge(i-1, i)
		}
	}
	return &Fan{G: g, Center: 0, End1: 1, End2: length}, nil
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
// Corners are (a, b, c, d) = (x_0, y_0, x_{k-1}, y_{k-1}).
func NewStrip(rungs int) (*Strip, error) {
	if rungs < 2 {
		return nil, fmt.Errorf("ding: strip needs >= 2 rungs, got %d", rungs)
	}
	g := graph.New(2 * rungs)
	top := func(i int) int { return 2 * i }
	bot := func(i int) int { return 2*i + 1 }
	for i := 0; i < rungs; i++ {
		g.AddEdge(top(i), bot(i))
		if i+1 < rungs {
			g.AddEdge(top(i), top(i+1))
			g.AddEdge(bot(i), bot(i+1))
		}
	}
	return &Strip{G: g, A: top(0), B: bot(0), C: top(rungs - 1), D: bot(rungs - 1)}, nil
}
