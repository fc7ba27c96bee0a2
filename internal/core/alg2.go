package core

import (
	"localmds/internal/graph"
)

// Alg2 runs Algorithm 2 (Theorem 4.3): the same cut-based algorithm as
// Algorithm 1, but parameterised by the asymptotic dimension's control
// function f of the input's graph class instead of the K_{2,t} parameter t.
// The approximation ratio is c3.2(d) + c3.3(d) + 1, with the Lemma 3.2
// and 3.3 constants c3.2(d) = 3(d+1) and c3.3(d) = 22(d+1); the round
// complexity additionally depends on the largest K_{2,t} minor of the
// input, which the algorithm does not need to know.
func Alg2(g *graph.Graph, f ControlFunction, maxBrute int) (*Alg1Result, error) {
	p := AsdimParams(f)
	p.MaxBruteComponent = maxBrute
	return Alg1(g, p)
}
