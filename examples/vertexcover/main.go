// Vertexcover: the Minimum Vertex Cover variants from the end of §4. A
// link-monitoring application must place monitors on switches so that every
// cable has a monitored endpoint — a vertex cover. On outerplanar and
// K_{2,t}-minor-free topologies the paper's MVC variants give constant
// ratios in constant rounds.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "vertexcover: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(11))
	topologies := []struct {
		name string
		g    *graph.Graph
	}{
		{"outerplanar ring", gen.MaximalOuterplanar(60, rng)},
		{"K2,5-free mesh", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 60, T: 5}, rng)},
		{"cactus backbone", gen.RandomCactus(60, rng)},
	}
	for _, topo := range topologies {
		fmt.Printf("== %s: %s\n", topo.name, topo.g)
		c := topo.g.Freeze()
		opt, err := mds.ExactMVC(c, mds.ExactOptions{})
		if err != nil {
			return err
		}

		d2 := core.MVCD2(c)
		fmt.Printf("  Thm 4.4 MVC variant: %d monitors (ratio %.2f), valid = %v\n",
			len(d2.S), ratio(len(d2.S), len(opt)), mds.IsVertexCover(c, d2.S))

		a1, err := core.MVCAlg1(c, core.PracticalParams(), core.PipelineOptions{})
		if err != nil {
			return err
		}
		fmt.Printf("  Alg 1 MVC variant:   %d monitors (ratio %.2f), valid = %v\n",
			len(a1.S), ratio(len(a1.S), len(opt)), mds.IsVertexCover(c, a1.S))

		matching := mds.MatchingVertexCover(c)
		fmt.Printf("  matching baseline:   %d monitors (ratio %.2f)\n",
			len(matching), ratio(len(matching), len(opt)))
		fmt.Printf("  offline optimum:     %d monitors\n\n", len(opt))
	}
	return nil
}

func ratio(sol, opt int) float64 {
	if opt == 0 {
		return 0
	}
	return float64(sol) / float64(opt)
}
