package ding

import (
	"fmt"
	"math/rand"

	"localmds/internal/graph"
)

// WorkloadKind selects the flavor of K_{2,t}-minor-free instance produced
// by Generate.
type WorkloadKind int

// Workload kinds. BlockForest glues small 2-connected blocks at cut
// vertices (rich in 1-cuts); StripChain concatenates long strips and fans
// (rich in local 2-cuts, the Lemma 4.2 regime); Mixed interleaves both plus
// pendant trees.
const (
	BlockForest WorkloadKind = iota + 1
	StripChain
	Mixed
)

// Config parameterizes Generate.
type Config struct {
	Kind WorkloadKind
	// N is the approximate target vertex count (the generator stops once
	// it reaches or exceeds it).
	N int
	// T is the K_{2,t} parameter the instance must exclude; must be >= 3.
	// Blocks use only gadgets that are provably K_{2,min(5,t)}-minor-free
	// (fans and cycles are K_{2,3}-free; ladder strips are K_{2,5}-free
	// per Ding), so every generated graph excludes K_{2,t}.
	T int
}

// Generate returns a connected K_{2,t}-minor-free graph per cfg: the
// adjacency-list view of GenerateCSR's graph.
func Generate(cfg Config, rng *rand.Rand) (*graph.Graph, error) {
	c, err := GenerateCSR(cfg, rng)
	if err != nil {
		return nil, err
	}
	return graph.FromCSR(c), nil
}

// MustGenerate is Generate for benchmarks with static configs; it panics on
// config errors.
func MustGenerate(cfg Config, rng *rand.Rand) *graph.Graph {
	g, err := Generate(cfg, rng)
	if err != nil {
		panic(err)
	}
	return g
}

// GenerateCSR returns a connected K_{2,t}-minor-free graph per cfg. The
// gadgets append their edges to one list, built into the CSR once.
//
// Freeness argument: every gadget used (cycle, fan, ladder strip, tree
// edge) is K_{2,3}- or K_{2,5}-minor-free, and gadgets are glued only at
// single cut vertices. K_{2,t} (t >= 2) is 2-connected, so any K_{2,t}
// minor model would have to live inside a single block of the result; every
// block is a gadget, hence free for t >= 5 (and for t >= 3 when cfg.T < 5,
// where strips are replaced by fans). Tests cross-check with the exact
// minor tester on small instances.
func GenerateCSR(cfg Config, rng *rand.Rand) (*graph.CSR, error) {
	if cfg.T < 3 {
		return nil, fmt.Errorf("ding: config T = %d < 3", cfg.T)
	}
	if cfg.N < 3 {
		return nil, fmt.Errorf("ding: config N = %d < 3", cfg.N)
	}
	// Every gadget adds fewer than two edges per new vertex, and the last
	// one overshoots N by fewer than 32 vertices, so one allocation holds
	// the edge list.
	b := &builder{n: 1, edges: make([][2]int, 0, 2*(cfg.N+32))}
	switch cfg.Kind {
	case BlockForest:
		b.blockForest(cfg, rng)
	case StripChain:
		b.stripChain(cfg, rng)
	case Mixed:
		b.mixed(cfg, rng)
	default:
		return nil, fmt.Errorf("ding: unknown workload kind %d", cfg.Kind)
	}
	return graph.CSRFromEdges(b.n, b.edges), nil
}

// builder is a graph under generation: a running vertex count and the
// edges emitted so far.
type builder struct {
	n     int
	edges [][2]int
}

func (b *builder) vertex() int {
	b.n++
	return b.n - 1
}

func (b *builder) edge(u, v int) { b.edges = append(b.edges, [2]int{u, v}) }

// glued is a gadget glued into a builder: its local vertex anchor is the
// builder's vertex at, and its other vertices are new, numbered in gadget
// order from base.
type glued struct {
	b                *builder
	base, anchor, at int
}

// glue adds the size-1 new vertices of a gadget whose local vertex anchor
// is identified with the builder's vertex at.
func (b *builder) glue(size, anchor, at int) glued {
	g := glued{b: b, base: b.n, anchor: anchor, at: at}
	b.n += size - 1
	return g
}

// id maps the gadget's local vertex v to its builder vertex.
func (g glued) id(v int) int {
	switch {
	case v < g.anchor:
		return g.base + v
	case v == g.anchor:
		return g.at
	default:
		return g.base + v - 1
	}
}

func (g glued) edge(u, v int) { g.b.edge(g.id(u), g.id(v)) }

// cycleEdges emits the cycle on local vertices 0..c-1.
func cycleEdges(c int, emit func(u, v int)) {
	for i := 0; i < c; i++ {
		emit(i, (i+1)%c)
	}
}

// fanEdges emits the fan of the given length: center 0 joined to every
// vertex of the path 1..length.
func fanEdges(length int, emit func(u, v int)) {
	for i := 1; i <= length; i++ {
		emit(0, i)
		if i > 1 {
			emit(i-1, i)
		}
	}
}

// stripEdges emits the ladder strip with the given number of rungs: top
// path x_i = 2i, bottom path y_i = 2i+1, rung edges x_i y_i.
func stripEdges(rungs int, emit func(u, v int)) {
	for i := 0; i < rungs; i++ {
		emit(2*i, 2*i+1)
		if i+1 < rungs {
			emit(2*i, 2*i+2)
			emit(2*i+1, 2*i+3)
		}
	}
}

// fan glues a fan of the given length at the builder's vertex at, by its
// local vertex anchor.
func (b *builder) fan(length, anchor, at int) glued {
	g := b.glue(length+1, anchor, at)
	fanEdges(length, g.edge)
	return g
}

// strip glues a ladder strip with the given number of rungs at the
// builder's vertex at, by its corner a.
func (b *builder) strip(rungs, at int) glued {
	g := b.glue(2*rungs, 0, at)
	stripEdges(rungs, g.edge)
	return g
}

// randomBlock glues a small 2-connected K_{2,min(5,t)}-minor-free gadget
// at the builder's vertex at.
func (b *builder) randomBlock(t, at int, rng *rand.Rand) {
	switch choice := rng.Intn(3); {
	case choice == 0:
		// Cycle block (K_{2,3}-minor-free).
		c := 3 + rng.Intn(6)
		cycleEdges(c, b.glue(c, 0, at).edge)
	case choice == 1 || t < 5:
		// Fan block (outerplanar, K_{2,3}-minor-free), glued at its center.
		b.fan(2+rng.Intn(6), 0, at)
	default:
		// Ladder strip block (K_{2,5}-minor-free per Ding).
		b.strip(2+rng.Intn(5), at)
	}
}

func (b *builder) blockForest(cfg Config, rng *rand.Rand) {
	for b.n < cfg.N {
		at := rng.Intn(b.n)
		if rng.Intn(4) == 0 {
			// Pendant edge to keep tree parts around.
			b.edge(at, b.vertex())
			continue
		}
		b.randomBlock(cfg.T, at, rng)
	}
}

func (b *builder) stripChain(cfg Config, rng *rand.Rand) {
	// A chain of long gadgets glued end to end at single vertices: this is
	// the Lemma 4.2 regime where residual components would be long strips.
	at := 0
	for b.n < cfg.N {
		if cfg.T >= 5 && rng.Intn(2) == 0 {
			rungs := 4 + rng.Intn(8)
			at = b.strip(rungs, at).id(2*rungs - 1) // enter at a, leave at d
		} else {
			length := 4 + rng.Intn(8)
			at = b.fan(length, 1, at).id(length) // enter and leave at the path's ends
		}
	}
}

func (b *builder) mixed(cfg Config, rng *rand.Rand) {
	for b.n < cfg.N {
		at := rng.Intn(b.n)
		switch rng.Intn(5) {
		case 0, 1:
			b.randomBlock(cfg.T, at, rng)
		case 2:
			// Short pendant path.
			l := 1 + rng.Intn(4)
			prev := at
			for i := 0; i < l; i++ {
				v := b.vertex()
				b.edge(prev, v)
				prev = v
			}
		case 3:
			if cfg.T >= 5 {
				b.strip(3+rng.Intn(6), at)
			} else {
				b.fan(3+rng.Intn(6), 0, at)
			}
		default:
			b.edge(at, b.vertex())
		}
	}
}
