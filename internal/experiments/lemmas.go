package experiments

import (
	"fmt"
	"math/rand"

	"localmds/internal/core"
	"localmds/internal/cuts"
	"localmds/internal/ding"
	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/mds"
	"localmds/internal/spqr"
)

// Lemma32Spec declares the Lemma 3.2 constant measurement: the number of
// r-local minimal 1-cuts against c3.2(1) * MDS(G) on the paper's classes.
// One task per (n, instance family).
func Lemma32Spec(ns []int, r int) Spec {
	s := Spec{
		Name:   "lemma32",
		Title:  fmt.Sprintf("Lemma 3.2 — #(%d-local 1-cuts) vs c3.2(1)*MDS = 6*MDS", r),
		Header: []string{"instance", "n", "local 1-cuts", "MDS", "ratio", "<= 6"},
	}
	for _, n := range ns {
		for _, inst := range lemmaInstances(n) {
			s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d-%s", n, inst.name), Run: func(seed int64) ([][]string, error) {
				g := inst.build(rand.New(rand.NewSource(seed))).Freeze()
				locals := cuts.LocalOneCutsCSR(g, r, graph.NewArena())
				opt, err := mds.ExactMDS(g, mds.ExactOptions{})
				if err != nil {
					return nil, fmt.Errorf("lemma32 %s n=%d: %w", inst.name, n, err)
				}
				ratio := float64(len(locals)) / float64(len(opt))
				return [][]string{{inst.name, fmt.Sprint(g.N()), fmt.Sprint(len(locals)),
					fmt.Sprint(len(opt)), fmt.Sprintf("%.2f", ratio),
					fmt.Sprint(len(locals) <= 6*len(opt))}}, nil
			}})
		}
	}
	return s
}

// lemmaInstances is the Lemma 3.2 workload family at size n.
func lemmaInstances(n int) []namedBuilder {
	return []namedBuilder{
		{"cycle", func(*rand.Rand) *graph.Graph { return gen.Cycle(n) }},
		{"tree", func(rng *rand.Rand) *graph.Graph { return gen.RandomTree(n, rng) }},
		{"ding-mixed", func(rng *rand.Rand) *graph.Graph {
			return ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: n, T: 5}, rng)
		}},
	}
}

// namedBuilder pairs an instance family name with its seeded constructor.
type namedBuilder struct {
	name  string
	build func(rng *rand.Rand) *graph.Graph
}

// Lemma33Spec declares the Lemma 3.3 constant measurement — the number of
// r-interesting vertices against c3.3(1) * MDS — contrasted with the
// unrestricted count of 2-cut vertices on the clique-plus-pendants
// instance from §4, which grows linearly while MDS stays 1. One task per
// (n, instance family).
func Lemma33Spec(ns []int, r int) Spec {
	s := Spec{
		Name:   "lemma33",
		Title:  fmt.Sprintf("Lemma 3.3 — #(%d-interesting vertices) vs c3.3(1)*MDS = 44*MDS; plain 2-cut vertices are unbounded", r),
		Header: []string{"instance", "n", "2-cut vertices", "interesting", "MDS", "interesting/MDS", "<= 44"},
	}
	for _, n := range ns {
		instances := []namedBuilder{
			{"clique+pendants", func(*rand.Rand) *graph.Graph { return gen.CliquePendants(n / 2) }},
			{"ding-mixed", func(rng *rand.Rand) *graph.Graph {
				return ding.MustGenerate(ding.Config{Kind: ding.Mixed, N: n, T: 5}, rng)
			}},
			{"cycle", func(*rand.Rand) *graph.Graph { return gen.Cycle(n) }},
		}
		for _, inst := range instances {
			s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d-%s", n, inst.name), Run: func(seed int64) ([][]string, error) {
				g := inst.build(rand.New(rand.NewSource(seed)))
				twoCutVerts := map[int]bool{}
				for _, c := range cuts.MinimalTwoCuts(g) {
					twoCutVerts[c.U] = true
					twoCutVerts[c.V] = true
				}
				c := g.Freeze()
				interesting := cuts.LocallyInterestingVerticesCSR(c, r, graph.NewArena())
				opt, err := mds.ExactMDS(c, mds.ExactOptions{})
				if err != nil {
					return nil, fmt.Errorf("lemma33 %s n=%d: %w", inst.name, n, err)
				}
				ratio := float64(len(interesting)) / float64(len(opt))
				return [][]string{{inst.name, fmt.Sprint(g.N()), fmt.Sprint(len(twoCutVerts)),
					fmt.Sprint(len(interesting)), fmt.Sprint(len(opt)),
					fmt.Sprintf("%.2f", ratio), fmt.Sprint(len(interesting) <= 44*len(opt))}}, nil
			}})
		}
	}
	return s
}

// Lemma42Spec declares the residual-diameter measurement after Algorithm
// 1's cut phase on growing strip chains: Lemma 4.2 predicts it stays
// bounded by m4.2(t) as n grows, for every radius. Small radii take many
// local cuts (few residual components); larger radii leave more
// brute-force work whose diameter must still not grow with n. One task per
// n; the radius rows share the instance.
func Lemma42Spec(ns []int) Spec {
	s := Spec{
		Name:   "lemma42",
		Title:  "Lemma 4.2 — residual component diameter stays bounded as n grows (strip chains, T=5)",
		Header: []string{"n", "R1=R2", "components", "max diameter", "|X|", "|I|"},
	}
	for _, n := range ns {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d", n), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			g, err := ding.GenerateCSR(ding.Config{Kind: ding.StripChain, N: n, T: 5}, rng)
			if err != nil {
				return nil, err
			}
			var rows [][]string
			for _, r := range []int{2, 4, 8} {
				res, err := core.Alg1CSR(g, core.Params{R1: r, R2: r}, core.PipelineOptions{})
				if err != nil {
					return nil, fmt.Errorf("lemma42 n=%d r=%d: %w", n, r, err)
				}
				rows = append(rows, []string{fmt.Sprint(g.N()), fmt.Sprint(r), fmt.Sprint(len(res.Components)),
					fmt.Sprint(res.MaxComponentDiameter), fmt.Sprint(len(res.X)), fmt.Sprint(len(res.I))})
			}
			return rows, nil
		}})
	}
	return s
}

// Lemma518Spec declares the Figure 1/2 construction measurement: |A| vs
// (t-1)|B| on K_{2,t}-minor-free instances (Lemmas 5.17/5.18). One task
// per n.
func Lemma518Spec(ns []int, tParam int) Spec {
	s := Spec{
		Name:   "lemma518",
		Title:  fmt.Sprintf("Lemmas 5.17/5.18 (Figures 1-2) — |A| <= (t-1)|B| with t = %d", tParam),
		Header: []string{"n", "|A|", "|B|", "(t-1)|B|", "ok", "|D2|"},
	}
	for _, n := range ns {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d", n), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			g, err := ding.GenerateCSR(ding.Config{Kind: ding.Mixed, N: n, T: tParam}, rng)
			if err != nil {
				return nil, err
			}
			res, err := core.BuildMinorBound(g)
			if err != nil {
				return nil, fmt.Errorf("lemma518 n=%d: %w", n, err)
			}
			ok := core.VerifyMinorBound(res, tParam) == nil
			return [][]string{{fmt.Sprint(g.N()), fmt.Sprint(len(res.A)), fmt.Sprint(len(res.B)),
				fmt.Sprint((tParam - 1) * len(res.B)), fmt.Sprint(ok), fmt.Sprint(res.D2Count)}}, nil
		}})
	}
	return s
}

// CycleLocalCutsSpec declares the §4 discussion reproduction: on the cycle
// every vertex is an r-local 1-cut while no vertex is a global cut vertex.
// The construction is deterministic; tasks ignore their seeds.
func CycleLocalCutsSpec(ns []int, r int) Spec {
	s := Spec{
		Name:   "cycle-local-cuts",
		Title:  fmt.Sprintf("§4 discussion — long cycles: all vertices are %d-local 1-cuts, none are global", r),
		Header: []string{"n", "local 1-cuts", "global cut vertices", "MDS", "locals/MDS"},
	}
	for _, n := range ns {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d", n), Run: func(int64) ([][]string, error) {
			c, a := gen.Cycle(n).Freeze(), graph.NewArena()
			locals := cuts.LocalOneCutsCSR(c, r, a)
			arts := 0
			for _, art := range c.Blocks(a).Art {
				if art {
					arts++
				}
			}
			optSize := (n + 2) / 3 // MDS of a cycle is ceil(n/3)
			return [][]string{{fmt.Sprint(n), fmt.Sprint(len(locals)), fmt.Sprint(arts),
				fmt.Sprint(optSize), fmt.Sprintf("%.2f", float64(len(locals))/float64(optSize))}}, nil
		}})
	}
	return s
}

// SPQRStatsSpec declares the SPQR decomposition statistics: random
// 2-connected graphs are decomposed, Proposition 5.7 coverage is verified,
// and the interesting-cut family count of Proposition 5.8 is reported. One
// task per n.
func SPQRStatsSpec(ns []int) Spec {
	s := Spec{
		Name:   "spqr",
		Title:  "SPQR / Prop 5.7 / Prop 5.8 — decomposition statistics on random 2-connected graphs",
		Header: []string{"n", "S", "P", "R", "2-cuts covered", "families (<=3?)"},
	}
	for _, n := range ns {
		s.Tasks = append(s.Tasks, Task{Row: fmt.Sprintf("n%d", n), Run: func(seed int64) ([][]string, error) {
			rng := rand.New(rand.NewSource(seed))
			g := gen.Cycle(n)
			for c := 0; c < n/4; c++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v && !g.HasEdge(u, v) {
					g.AddEdge(u, v)
				}
			}
			tree, err := spqr.Decompose(g)
			if err != nil {
				return nil, fmt.Errorf("spqr n=%d: %w", n, err)
			}
			sc, p, r := tree.CountTypes()
			covered := true
			candSet := map[[2]int]bool{}
			for _, cp := range tree.CandidateTwoCuts() {
				candSet[[2]int{cp.U, cp.V}] = true
			}
			for _, c := range cuts.MinimalTwoCuts(g) {
				if !candSet[[2]int{c.U, c.V}] {
					covered = false
				}
			}
			families := spqr.InterestingFamilies(g)
			return [][]string{{fmt.Sprint(n), fmt.Sprint(sc), fmt.Sprint(p), fmt.Sprint(r),
				fmt.Sprint(covered), fmt.Sprintf("%d (%v)", len(families), len(families) <= 3)}}, nil
		}})
	}
	return s
}
