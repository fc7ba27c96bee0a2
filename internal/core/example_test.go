package core_test

import (
	"fmt"

	"localmds/internal/core"
	"localmds/internal/gen"
	"localmds/internal/local"
	"localmds/internal/mds"
)

// ExampleAlg1CSR runs Algorithm 1 on a long cycle: every vertex is a local
// 1-cut (§4 of the paper), so the cut phase alone dominates.
func ExampleAlg1CSR() {
	c := gen.Cycle(30).Freeze()
	res, err := core.Alg1CSR(c, core.Params{R1: 3, R2: 2}, core.PipelineOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("dominating:", mds.IsDominatingSetCSR(c, res.S))
	fmt.Println("local 1-cuts:", len(res.X))
	fmt.Println("residual components:", len(res.Components))
	// Output:
	// dominating: true
	// local 1-cuts: 30
	// residual components: 0
}

// ExampleD2 shows the Theorem 4.4 set on a star: only the center has
// γ(v) >= 2.
func ExampleD2() {
	res := core.D2(gen.Star(6).Freeze())
	fmt.Println(res.S)
	// Output:
	// [0]
}

// ExampleRunD2 runs the 3-round algorithm on the LOCAL simulator.
func ExampleRunD2() {
	g := gen.Path(9)
	s, stats, err := core.RunD2(g.Freeze(), nil, local.Sequential)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("set:", s)
	fmt.Println("rounds:", stats.Rounds)
	// Output:
	// set: [1 2 3 4 5 6 7]
	// rounds: 5
}

// ExamplePaperParams shows the Theorem 4.1 radii growing linearly in t.
func ExamplePaperParams() {
	for _, t := range []int{3, 4, 5} {
		p := core.PaperParams(t)
		fmt.Printf("t=%d: m3.2=%d m3.3=%d\n", t, p.R1, p.R2)
	}
	// Output:
	// t=3: m3.2=131 m3.3=223
	// t=4: m3.2=174 m3.3=296
	// t=5: m3.2=217 m3.3=369
}
