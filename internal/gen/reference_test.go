package gen

import (
	"fmt"
	"math/rand"

	"localmds/internal/ding"
	"localmds/internal/graph"
)

// The reference generators: the per-edge bodies the batch builders
// replaced, growing a *graph.Graph one AddEdge at a time. The batch
// builders must reproduce them edge for edge and consume the RNG in the
// same order. Ding's workload kinds are here too, so one property test and
// one fuzz target cover every generator FromKind reaches.

func refPath(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func refCycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: cycle needs n >= 3, got %d", n))
	}
	g := refPath(n)
	g.AddEdge(n-1, 0)
	return g
}

func refComplete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func refGrid(rows, cols int) *graph.Graph {
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

func refRandomTree(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, rng.Intn(i))
	}
	return g
}

func refRandomCactus(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(1)
	for g.N() < n {
		attach := rng.Intn(g.N())
		if rng.Intn(2) == 0 {
			v := g.AddVertex()
			g.AddEdge(attach, v)
			continue
		}
		clen := 3 + rng.Intn(4)
		prev := attach
		for i := 0; i < clen-1; i++ {
			v := g.AddVertex()
			g.AddEdge(prev, v)
			prev = v
		}
		g.AddEdge(prev, attach)
	}
	return g
}

func refMaximalOuterplanar(n int, rng *rand.Rand) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("gen: outerplanar needs n >= 3, got %d", n))
	}
	g := refCycle(n)
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

func refCliquePendants(q int) *graph.Graph {
	if q < 2 {
		panic(fmt.Sprintf("gen: CliquePendants needs q >= 2, got %d", q))
	}
	g := refComplete(q)
	for v := 1; v < q; v++ {
		x := g.AddVertex()
		g.AddEdge(x, 0)
		g.AddEdge(x, v)
	}
	return g
}

func refGNPConnected(n int, p float64, rng *rand.Rand) *graph.Graph {
	g := refRandomTree(n, rng)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) && rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// refFromKind is FromKind over the reference generators. Its grids kind
// folds graph.DisjointUnion, which has its own per-edge reference in
// package graph.
func refFromKind(kind string, n, tParam int, p float64, rng *rand.Rand) (g *graph.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("cannot generate %q with n=%d: %v", kind, n, r)
		}
	}()
	switch kind {
	case "ding":
		return refDing(ding.Config{Kind: ding.Mixed, N: n, T: tParam}, rng)
	case "cactus":
		return refRandomCactus(n, rng), nil
	case "tree":
		return refRandomTree(n, rng), nil
	case "cycle":
		return refCycle(n), nil
	case "grid":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return refGrid(side, side), nil
	case "grids":
		if n < 144 {
			return nil, fmt.Errorf("grids: n = %d < 144", n)
		}
		g = refGrid(12, 12)
		for i := 1; i < n/144; i++ {
			g = graph.DisjointUnion(g, refGrid(12, 12))
		}
		return g, nil
	case "outerplanar":
		return refMaximalOuterplanar(n, rng), nil
	case "cliquependants":
		return refCliquePendants(n / 2), nil
	case "gnp":
		return refGNPConnected(n, p, rng), nil
	}
	return nil, fmt.Errorf("unknown generator %q", kind)
}

// refDing is ding.Generate as it was: every gadget a standalone
// *graph.Graph, glued into the growing graph by glueGadgetAt.
func refDing(cfg ding.Config, rng *rand.Rand) (*graph.Graph, error) {
	if cfg.T < 3 {
		return nil, fmt.Errorf("ding: config T = %d < 3", cfg.T)
	}
	if cfg.N < 3 {
		return nil, fmt.Errorf("ding: config N = %d < 3", cfg.N)
	}
	switch cfg.Kind {
	case ding.BlockForest:
		return refBlockForest(cfg, rng), nil
	case ding.StripChain:
		return refStripChain(cfg, rng), nil
	case ding.Mixed:
		return refMixed(cfg, rng), nil
	}
	return nil, fmt.Errorf("ding: unknown workload kind %d", cfg.Kind)
}

// refFan is the fan on center 0 and path 1..length.
func refFan(length int) *graph.Graph {
	g := graph.New(length + 1)
	for i := 1; i <= length; i++ {
		g.AddEdge(0, i)
		if i > 1 {
			g.AddEdge(i-1, i)
		}
	}
	return g
}

// refStrip is the ladder with top path 2i and bottom path 2i+1; its
// corner a is 0 and d is 2·rungs-1.
func refStrip(rungs int) *graph.Graph {
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
	return g
}

// glueGadgetAt merges gadget into g, identifying gadget vertex anchor with
// g's vertex at.
func glueGadgetAt(g *graph.Graph, gadget *graph.Graph, anchor, at int) {
	offset := make([]int, gadget.N())
	for v := 0; v < gadget.N(); v++ {
		if v == anchor {
			offset[v] = at
		} else {
			offset[v] = g.AddVertex()
		}
	}
	gadget.VisitEdges(func(u, v int) {
		g.AddEdge(offset[u], offset[v])
	})
}

func refRandomBlock(t int, rng *rand.Rand) (*graph.Graph, int) {
	switch choice := rng.Intn(3); {
	case choice == 0:
		c := 3 + rng.Intn(6)
		g := graph.New(c)
		for i := 0; i < c; i++ {
			g.AddEdge(i, (i+1)%c)
		}
		return g, 0
	case choice == 1 || t < 5:
		return refFan(2 + rng.Intn(6)), 0
	default:
		return refStrip(2 + rng.Intn(5)), 0
	}
}

func refBlockForest(cfg ding.Config, rng *rand.Rand) *graph.Graph {
	g := graph.New(1)
	for g.N() < cfg.N {
		at := rng.Intn(g.N())
		if rng.Intn(4) == 0 {
			v := g.AddVertex()
			g.AddEdge(at, v)
			continue
		}
		block, anchor := refRandomBlock(cfg.T, rng)
		glueGadgetAt(g, block, anchor, at)
	}
	return g
}

func refStripChain(cfg ding.Config, rng *rand.Rand) *graph.Graph {
	g := graph.New(1)
	at := 0
	for g.N() < cfg.N {
		var gadget *graph.Graph
		var anchor, exit int
		if cfg.T >= 5 && rng.Intn(2) == 0 {
			rungs := 4 + rng.Intn(8)
			gadget, anchor, exit = refStrip(rungs), 0, 2*rungs-1
		} else {
			length := 4 + rng.Intn(8)
			gadget, anchor, exit = refFan(length), 1, length
		}
		before := g.N()
		glueGadgetAt(g, gadget, anchor, at)
		shift := 0
		for v := 0; v < exit; v++ {
			if v != anchor {
				shift++
			}
		}
		at = before + shift
	}
	return g
}

func refMixed(cfg ding.Config, rng *rand.Rand) *graph.Graph {
	g := graph.New(1)
	for g.N() < cfg.N {
		at := rng.Intn(g.N())
		switch rng.Intn(5) {
		case 0, 1:
			block, anchor := refRandomBlock(cfg.T, rng)
			glueGadgetAt(g, block, anchor, at)
		case 2:
			l := 1 + rng.Intn(4)
			prev := at
			for i := 0; i < l; i++ {
				v := g.AddVertex()
				g.AddEdge(prev, v)
				prev = v
			}
		case 3:
			if cfg.T >= 5 {
				glueGadgetAt(g, refStrip(3+rng.Intn(6)), 0, at)
			} else {
				glueGadgetAt(g, refFan(3+rng.Intn(6)), 0, at)
			}
		default:
			v := g.AddVertex()
			g.AddEdge(at, v)
		}
	}
	return g
}
