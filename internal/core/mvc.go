package core

import (
	"slices"

	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/mds"
)

// MVCResult reports a vertex-cover algorithm's outcome.
type MVCResult struct {
	// S is the returned vertex cover (original labels).
	S []int
	// X are local 1-cut vertices, C2 the local 2-cut vertices taken
	// (Algorithm 1 variant only).
	X, C2 []int
	// Components brute-forced (Algorithm 1 variant only).
	Components [][]int
	// MaxComponentDiameter as in Alg1Result.
	MaxComponentDiameter int
	// BruteFallbacks counts components covered by the matching
	// 2-approximation instead of exactly: those over MaxBruteComponent,
	// and those under it whose exact search ran out of BruteNodeBudget
	// (Algorithm 1 variant only).
	BruteFallbacks int
	// StageStats is the per-stage trail of the Algorithm 1 variant's
	// pipeline (Cuts → Partition → ComponentSolve → Stitch); an empty
	// input leaves it nil.
	StageStats StageStats
}

// MVCAlg1 is the Minimum Vertex Cover variant of Algorithm 1 described
// after Theorem 4.3: take all vertices of R1-local minimal 1-cuts, all
// vertices of R2-local minimal 2-cuts (not only interesting ones), and
// cover the remaining uncovered edges per residual component exactly.
// Unlike the MDS variant it needs no twin reduction: covering is monotone
// under vertex removal. It runs as the staged pipeline
// Cuts → Partition → ComponentSolve → Stitch, on Alg1CSR's cut kernel and
// component fan-out, and opt works as for Alg1CSR: the result is the same
// at every worker count. csr is only read, so it may be a read-only mmap.
func MVCAlg1(csr *graph.CSR, p Params, opt PipelineOptions) (*MVCResult, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	if csr.N() == 0 {
		return &MVCResult{}, nil
	}
	workers, hooks := opt.workers(), opt.Hooks
	res := &MVCResult{}
	arena := graph.NewArena()

	res.StageStats.runStage(hooks, "Cuts", "cut vertices", func() int {
		res.X, res.C2 = cuts.LocalCutsC2Workers(csr, p.R1, p.R2, workers, arena)
		return len(res.X) + len(res.C2)
	})

	// Partition: the residual components of G - (X ∪ C2) with an uncovered
	// edge.
	var s1 []int
	var comps [][]int32
	res.StageStats.runStage(hooks, "Partition", "residual components", func() int {
		s1 = graph.SortedUnion(res.X, res.C2)
		comps = csr.SubsetComponents(mvcResidual(csr, s1), arena)
		return len(comps)
	})

	// ComponentSolve: exact vertex cover per residual component, the
	// matching 2-approximation above the cap or out of budget.
	var outs []compOut
	res.StageStats.runStage(hooks, "ComponentSolve", "solved components", func() int {
		outs = solveComponents(csr, comps, workers, hooks, func(sub *graph.CSR, _ []int32) ([]int, bool) {
			return solveMVCComponent(sub, p)
		})
		return len(outs)
	})

	res.StageStats.runStage(hooks, "Stitch", "solution vertices", func() int {
		res.S, res.Components, res.MaxComponentDiameter, res.BruteFallbacks = stitch(s1, comps, outs, ints)
		return len(res.S)
	})
	return res, nil
}

// mvcResidual is MVCAlg1's Partition rule: every vertex outside S1 (s1,
// ascending) with an uncovered incident edge, i.e. a neighbor outside S1
// too, ascending.
func mvcResidual(c *graph.CSR, s1 []int) []int32 {
	inS1 := make([]bool, c.N())
	for _, v := range s1 {
		inS1[v] = true
	}
	var rest []int32
	for v := range c.N() {
		if !inS1[v] && slices.ContainsFunc(c.Row(v), func(u int32) bool { return !inS1[u] }) {
			rest = append(rest, int32(v))
		}
	}
	return rest
}

// solveMVCComponent is the vertex-cover variant's component-solve
// dispatch, run by MVCAlg1 and by the LOCAL process alike: an exact
// minimum vertex cover of sub when it has at most p.MaxBruteComponent
// vertices and the search stays within BruteNodeBudget, else the matching
// 2-approximation, which fallback reports.
func solveMVCComponent(sub *graph.CSR, p Params) (chosen []int, fallback bool) {
	if sub.N() <= p.MaxBruteComponent {
		if chosen, err := mds.ExactMVC(sub, mds.ExactOptions{MaxNodes: BruteNodeBudget}); err == nil {
			return chosen, false
		}
	}
	return mds.MatchingVertexCover(sub), true
}

// MVCD2 is the Theorem 4.4 vertex-cover variant (the paper states a
// t-approximation in 3 rounds and omits the proof; this is the natural
// analogue): reduce true twins, then take every vertex that is incident to
// an edge and whose closed neighborhood is not contained in a neighbor's
// (γ(v) >= 2 restricted to non-isolated vertices), plus, for covered
// correctness, the smaller-identifier endpoint of any edge both of whose
// endpoints were rejected.
func MVCD2(c *graph.CSR) *MVCResult {
	var s []int
	for v, ok := range mvcD2Cover(c) {
		if ok {
			s = append(s, v)
		}
	}
	return &MVCResult{S: s}
}

// mvcD2Cover is MVCD2 on a CSR, as a membership bitmap over c's vertices;
// the LOCAL process runs it on its view and reads the center's bit.
func mvcD2Cover(c *graph.CSR) []bool {
	reduced, active := graph.TwinReduceCSR(c)
	take := make([]bool, reduced.N())
	for v := range reduced.N() {
		take[v] = reduced.Degree(v) > 0 && gammaAtLeastTwo(reduced, v)
	}
	// Repair pass, radius 1 and simultaneous (hence LOCAL-computable): a
	// rejected vertex joins when it has a rejected neighbor with a larger
	// label, covering every doubly rejected edge by its smaller endpoint.
	// Then map back to c and repair edges involving removed twins the
	// same way (a removed twin x of representative u has N[x] = N[u], so
	// edges at x mirror edges at u).
	inCover := make([]bool, c.N())
	for v, ok := range repairUncoveredEdges(reduced, take) {
		if ok {
			inCover[active[v]] = true
		}
	}
	return repairUncoveredEdges(c, inCover)
}

// repairUncoveredEdges returns take plus, for every edge with both
// endpoints rejected, the smaller endpoint. All decisions read the input
// state only, so the pass is a single simultaneous LOCAL round.
func repairUncoveredEdges(c *graph.CSR, take []bool) []bool {
	out := slices.Clone(take)
	for v := range c.N() {
		if !take[v] && slices.ContainsFunc(c.Row(v), func(u int32) bool { return !take[u] && int(u) > v }) {
			out[v] = true
		}
	}
	return out
}
