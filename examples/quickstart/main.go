// Quickstart: generate a K_{2,5}-minor-free network, run the paper's two
// algorithms (Theorem 4.1's Algorithm 1 and Theorem 4.4's 3-round D2), and
// compare both against the exact optimum.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"localmds/internal/core"
	"localmds/internal/ding"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(42))
	g, err := ding.Generate(ding.Config{Kind: ding.Mixed, N: 80, T: 5}, rng)
	if err != nil {
		return err
	}
	c := g.Freeze()
	diam, _, _ := c.Diameter(graph.NewArena(), 0)
	fmt.Printf("network: %s, diameter %d\n\n", g, diam)

	// Theorem 4.1: Algorithm 1 (centralized reference with practical
	// radii).
	res, err := core.Alg1CSR(c, core.PracticalParams(), core.PipelineOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("Algorithm 1 (Thm 4.1): |S| = %d, dominating = %v\n",
		len(res.S), mds.IsDominatingSetCSR(c, res.S))
	fmt.Printf("  local 1-cut vertices |X| = %d, interesting |I| = %d, residual components = %d (max diameter %d)\n",
		len(res.X), len(res.I), len(res.Components), res.MaxComponentDiameter)

	// Theorem 4.4: the 3-round D2 algorithm, actually message-passed on
	// the LOCAL simulator.
	d2, stats, err := core.RunD2(c, nil, local.Parallel)
	if err != nil {
		return err
	}
	fmt.Printf("\nD2 (Thm 4.4, simulated): |S| = %d, dominating = %v, rounds = %d, messages = %d\n",
		len(d2), mds.IsDominatingSetCSR(c, d2), stats.Rounds, stats.Messages)

	// Exact optimum for the ratio.
	opt, err := mds.ExactMDS(c, mds.ExactOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("\nexact MDS = %d\n", len(opt))
	fmt.Printf("Algorithm 1 ratio: %.2f (proven bound: 50)\n", float64(len(res.S))/float64(len(opt)))
	fmt.Printf("D2 ratio:          %.2f (proven bound: 2t-1 = 9)\n", float64(len(d2))/float64(len(opt)))
	return nil
}
