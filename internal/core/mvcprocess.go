package core

import (
	"slices"

	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/local"
)

// MVCD2GatherRounds is the gather horizon of the distributed Theorem 4.4
// MVC variant: adjacency to distance 5 (the final edge-repair step needs
// the take-status of the neighbors' reduced neighbors).
const MVCD2GatherRounds = 7

// NewMVCD2Process returns the distributed Theorem 4.4 MVC process: gather,
// then run mvcD2Cover, MVCD2's own steps, on the view.
func NewMVCD2Process() local.Process {
	return &viewProcess{rounds: MVCD2GatherRounds, decide: func(c *graph.CSR, center int) bool {
		return mvcD2Cover(c)[center]
	}}
}

// RunMVCD2 executes the distributed Theorem 4.4 MVC variant.
func RunMVCD2(c *graph.CSR, ids []int) ([]int, local.Stats, error) {
	return runBooleanProcess(c, ids, func(int) local.Process { return NewMVCD2Process() })
}

// MVCAlg1GatherRounds returns the gather horizon for the given radii:
// adjacency to distance max(R1, 2*R2)+2 (own decision, then the
// participant status of neighbors).
func MVCAlg1GatherRounds(p Params) int {
	r := p.R1
	if 2*p.R2 > r {
		r = 2 * p.R2
	}
	return r + 2 + 2
}

// mvcFlood is the vertex-cover variant's rule: MVCAlg1's Cuts and
// Partition on the view.
type mvcFlood struct{ p Params }

func (r mvcFlood) decide(c *graph.CSR, center int) (bool, *partRecord) {
	x, c2 := cuts.LocalCutsC2Workers(c, r.p.R1, r.p.R2, 1, graph.NewArena())
	s1 := graph.SortedUnion(x, c2)
	rest := mvcResidual(c, s1)
	if _, ok := slices.BinarySearch(rest, int32(center)); !ok {
		return graph.SortedContains(s1, center), nil
	}
	return false, residualRecord(c, center, rest, func(u int) int { return u }, false)
}

func (r mvcFlood) solve(sub *graph.CSR, _ []int) []int {
	chosen, _ := solveMVCComponent(sub, r.p)
	return chosen
}

// RunMVCAlg1 executes the distributed Algorithm 1 MVC variant: each
// process gathers, takes local 1-cuts and all local 2-cut vertices, then
// floods its residual component (vertices with an uncovered incident
// edge) and solves vertex cover on it.
func RunMVCAlg1(c *graph.CSR, ids []int, p Params) ([]int, local.Stats, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, local.Stats{}, err
	}
	return runFlood(c, ids, mvcFlood{p}, MVCAlg1GatherRounds(p))
}
