// Package localmds_test holds the benchmark harness: one testing.B target
// per evaluation artifact (the paper's Table 1 rows, the per-lemma
// measurements, and the simulator itself). Benchmarks report the measured
// approximation ratios and round counts via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the paper's evaluation in one
// run; EXPERIMENTS.md records the resulting numbers.
package localmds_test

import (
	"math/rand"
	"testing"

	"localmds/internal/asdim"
	"localmds/internal/core"
	"localmds/internal/cuts"
	"localmds/internal/ding"
	"localmds/internal/experiments"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
	"localmds/internal/minor"
	"localmds/internal/spqr"
)

// reportRatio attaches sol/opt as the "ratio" metric.
func reportRatio(b *testing.B, sol, opt int) {
	b.Helper()
	if opt > 0 {
		b.ReportMetric(float64(sol)/float64(opt), "ratio")
	}
}

// BenchmarkTable1Trees measures the folklore tree algorithm (Table 1 row
// "trees": 3-approx, 2 rounds).
func BenchmarkTable1Trees(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.RandomTree(150, rng).Freeze()
	opt, err := mds.ExactMDS(g, mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var sol []int
	for i := 0; i < b.N; i++ {
		sol = core.TreeMDS(g)
	}
	reportRatio(b, len(sol), len(opt))
	_, stats, err := core.RunTreeMDS(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(stats.Rounds), "rounds")
}

// BenchmarkTable1Outerplanar measures Algorithm 1 on maximal outerplanar
// graphs (Table 1 row "outerplanar": 5-approx, 2 rounds in [4]).
func BenchmarkTable1Outerplanar(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := gen.MaximalOuterplanar(100, rng).Freeze()
	opt, err := mds.ExactMDS(g, mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Alg1Result
	for i := 0; i < b.N; i++ {
		res, err = core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatio(b, len(res.S), len(opt))
	b.ReportMetric(float64(res.RoundsEstimate), "rounds_est")
}

// BenchmarkTable1K1t measures the take-all algorithm on bounded-degree
// graphs (Table 1 row "K_{1,t}": t-approx, 0 rounds).
func BenchmarkTable1K1t(b *testing.B) {
	rl, err := gen.RegularLike(120, 4)
	if err != nil {
		b.Fatal(err)
	}
	g := rl.Freeze()
	opt, err := mds.ExactMDS(g, mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var sol []int
	for i := 0; i < b.N; i++ {
		sol = core.TakeAllMDS(g)
	}
	reportRatio(b, len(sol), len(opt))
}

// BenchmarkTable1K2tLinear measures Theorem 4.4 (Table 1 row "K_{2,t}":
// (2t-1)-approx, 3 rounds) on Ding-structure instances, t = 5.
func BenchmarkTable1K2tLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 120, T: 5}, rng).Freeze()
	opt, err := mds.ExactMDS(g, mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var res *core.D2Result
	for i := 0; i < b.N; i++ {
		res = core.D2(g)
	}
	reportRatio(b, len(res.S), len(opt))
	small := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: 5}, rng)
	_, stats, err := core.RunD2(small.Freeze(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(stats.Rounds), "rounds")
}

// BenchmarkTable1K2tConst measures Theorem 4.1 / Algorithm 1 (Table 1 row
// "K_{2,t}": 50-approx, O_t(1) rounds) on Ding-structure instances, t = 5.
func BenchmarkTable1K2tConst(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 120, T: 5}, rng).Freeze()
	opt, err := mds.ExactMDS(g, mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Alg1Result
	for i := 0; i < b.N; i++ {
		res, err = core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatio(b, len(res.S), len(opt))
	b.ReportMetric(float64(res.RoundsEstimate), "rounds_est")
	b.ReportMetric(float64(res.MaxComponentDiameter), "max_comp_diam")
}

// BenchmarkTable1OtherClasses runs Algorithm 2 with an asdim-2 control
// function on grids, standing in for the K_{s,t}/K_t rows whose cited
// bounds are astronomical.
func BenchmarkTable1OtherClasses(b *testing.B) {
	// 10x10: grids are the exact solver's worst case; the bitset engine
	// proves this OPT in ~0.1s where the old search was capped at 7x7.
	g := gen.Grid(10, 10).Freeze()
	opt, err := mds.ExactMDS(g, mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	f := func(r int) int { return 2 * r }
	var res *core.Alg1Result
	for i := 0; i < b.N; i++ {
		res, err = core.Alg2(g, f, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRatio(b, len(res.S), len(opt))
}

// BenchmarkLemma32LocalOneCuts measures #(local 1-cuts) / MDS (Lemma 3.2
// bound: 6).
func BenchmarkLemma32LocalOneCuts(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 120, T: 5}, rng)
	opt, err := mds.ExactMDS(g.Freeze(), mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var locals []int
	for i := 0; i < b.N; i++ {
		locals = cuts.LocalOneCuts(g, 3)
	}
	reportRatio(b, len(locals), len(opt))
}

// BenchmarkLemma33Interesting measures #(interesting vertices) / MDS
// (Lemma 3.3 bound: 44) on the §4 clique-plus-pendants instance where
// unrestricted 2-cut vertices are Ω(n).
func BenchmarkLemma33Interesting(b *testing.B) {
	g := gen.CliquePendants(40)
	var interesting []int
	for i := 0; i < b.N; i++ {
		interesting = cuts.LocallyInterestingVertices(g, 3)
	}
	// MDS(clique+pendants) = 1.
	b.ReportMetric(float64(len(interesting)), "interesting")
	twoCutVerts := map[int]bool{}
	for _, c := range cuts.MinimalTwoCuts(g) {
		twoCutVerts[c.U] = true
		twoCutVerts[c.V] = true
	}
	b.ReportMetric(float64(len(twoCutVerts)), "twocut_vertices")
}

// BenchmarkLemma42Diameter measures the residual component diameter on
// growing strip chains (Lemma 4.2: bounded by m4.2(t)).
func BenchmarkLemma42Diameter(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := ding.MustGenerate(ding.Config{Kind: ding.StripChain, N: 300, T: 5}, rng).Freeze()
	var res *core.Alg1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Alg1CSR(g, core.PracticalParams(), core.PipelineOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MaxComponentDiameter), "max_comp_diam")
}

// BenchmarkLemma518MinorBound measures the Figure 1/2 construction:
// |A| / ((t-1)|B|) <= 1 (Lemma 5.18).
func BenchmarkLemma518MinorBound(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 100, T: 5}, rng).Freeze()
	var res *core.MinorBoundResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.BuildMinorBound(g)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.B) > 0 {
		b.ReportMetric(float64(len(res.A))/float64(4*len(res.B)), "A_over_t1B")
	}
}

// BenchmarkTheorem44MVC measures the MVC variant of Theorem 4.4
// (t-approx).
func BenchmarkTheorem44MVC(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 120, T: 5}, rng).Freeze()
	opt, err := mds.ExactMVC(g, mds.ExactOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var res *core.MVCResult
	for i := 0; i < b.N; i++ {
		res = core.MVCD2(g)
	}
	reportRatio(b, len(res.S), len(opt))
}

// BenchmarkProposition31 measures the Lemma 5.2 / Proposition 3.1 cover
// machinery on trees.
func BenchmarkProposition31(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := gen.RandomTree(120, rng)
	var cover *asdim.Cover
	var err error
	for i := 0; i < b.N; i++ {
		cover, err = asdim.BFSAnnulusCover(g, 5, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(asdim.ControlEstimate(g, cover, 5)), "control_f5")
}

// BenchmarkCycleLocalCuts measures the §4 cycle phenomenon: every vertex is
// a local 1-cut, none a global one.
func BenchmarkCycleLocalCuts(b *testing.B) {
	g := gen.Cycle(1000)
	var locals []int
	for i := 0; i < b.N; i++ {
		locals = cuts.LocalOneCuts(g, 3)
	}
	b.ReportMetric(float64(len(locals))/float64(g.N()), "local_cut_fraction")
	b.ReportMetric(float64(len(cuts.ArticulationPoints(g))), "global_cuts")
}

// BenchmarkSPQRDecomposition measures the triconnected decomposition.
func BenchmarkSPQRDecomposition(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := gen.Cycle(60)
	for c := 0; c < 15; c++ {
		u, v := rng.Intn(60), rng.Intn(60)
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := spqr.Decompose(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorBallGather measures simulator throughput: a radius-4
// gather on a 20x20 grid at GOMAXPROCS workers.
func BenchmarkSimulatorBallGather(b *testing.B) {
	g := gen.Grid(20, 20)
	nw, err := local.NewNetwork(g.Freeze(), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := local.GatherViews(nw, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorBallGatherLarge scales the gather benchmark to a
// 100x100 grid (10k vertices, ~20k edges) to expose the simulator's
// per-vertex overhead at a size where goroutine-per-vertex scheduling used
// to dominate.
func BenchmarkSimulatorBallGatherLarge(b *testing.B) {
	g := gen.Grid(100, 100)
	nw, err := local.NewNetwork(g.Freeze(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := local.GatherViews(nw, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlg1Distributed runs the full message-passing Algorithm 1,
// reporting the real round and message counts: on a moderate Ding
// instance, and on a 20×20 grid at two radii, where each process's
// decision over its gathered view dominates the run.
func BenchmarkAlg1Distributed(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		g    *graph.CSR
		p    core.Params
	}{
		{"ding40/r=3", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 40, T: 5}, rng).Freeze(), core.Params{R1: 3, R2: 3}},
		{"grid20x20/r=4", gen.Grid(20, 20).Freeze(), core.Params{R1: 4, R2: 4}},
		{"grid20x20/r=8", gen.Grid(20, 20).Freeze(), core.Params{R1: 8, R2: 8}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var stats local.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = core.RunAlg1(tc.g, nil, tc.p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Rounds), "rounds")
			b.ReportMetric(float64(stats.Messages), "messages")
		})
	}
}

// BenchmarkAlg1 measures the Algorithm 1 solver path end to end on the
// three shapes that stress different stages: a grid (cut enumeration
// dominates, one big residual component), a random K_{2,t}-minor-free
// instance (twin reduction + cuts), and a multi-component union of grids
// (ComponentSolve fans out across cores). The /pipeline row names are
// kept so recorded numbers stay comparable; the sequential test oracle's
// rows on the same shapes are internal/core's BenchmarkAlg1Sequential.
func BenchmarkAlg1(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	multi := gen.Grid(7, 7)
	for i := 0; i < 5; i++ {
		multi = graph.DisjointUnion(multi, gen.Grid(7, 7))
	}
	cases := []struct {
		name string
		g    *graph.CSR
	}{
		{"grid", gen.Grid(12, 12).Freeze()},
		{"grid100x100", gen.Grid(100, 100).Freeze()},
		{"minor-free", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 240, T: 5}, rng).Freeze()},
		{"multi-component", multi.Freeze()},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/pipeline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Alg1CSR(tc.g, core.PracticalParams(), core.PipelineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactMDS measures the exact solver the whole evaluation leans
// on, through the full production dispatch (width-2 DP → bitset
// branch-and-bound engine). The ding instance exercises the DP
// path it has always taken; the grid-NxN family lands in the engine — the
// old adjacency-list search's worst case, which capped these sizes out of
// the evaluation entirely. The engine-vs-reference before/after family
// lives in internal/mds (the reference implementation is unexported).
func BenchmarkExactMDS(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct {
		name string
		g    *graph.CSR
	}{
		{"ding-100", ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 100, T: 5}, rng).Freeze()},
		{"grid-9x9", gen.Grid(9, 9).Freeze()},
		{"grid-10x10", gen.Grid(10, 10).Freeze()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				sol, err := mds.ExactMDS(tc.g, mds.ExactOptions{})
				if err != nil {
					b.Fatal(err)
				}
				size = len(sol)
			}
			b.ReportMetric(float64(size), "opt")
		})
	}
}

// BenchmarkMinorDetection measures the exact K_{2,5} tester on a strip
// (a true negative: Ding proves strips are K_{2,5}-minor-free).
func BenchmarkMinorDetection(b *testing.B) {
	s, err := ding.NewStrip(6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_, ok, err := minor.HasK2tMinor(s.G, 5)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			b.Fatal("strip unexpectedly contains K_{2,5}")
		}
	}
}

// BenchmarkTable1Full regenerates the whole Table 1 (the cmd/mdsbench
// default) once per iteration at reduced size.
func BenchmarkTable1Full(b *testing.B) {
	cfg := experiments.Table1Config{N: 60, ProcessN: 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1Spec(cfg).RunSequential(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactMDSTreewidthDP measures the width-2 tree-decomposition DP
// at a scale far beyond branch and bound.
func BenchmarkExactMDSTreewidthDP(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	g := ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: 2000, T: 5}, rng).Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mds.ExactMDS(g, mds.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
