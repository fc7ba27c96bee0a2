// Package core implements the paper's distributed algorithms: Algorithm 1
// (Theorem 4.1, the O_t(1)-round 50-approximation for MDS on
// K_{2,t}-minor-free graphs), Algorithm 2 (Theorem 4.3, parameterised by
// asymptotic dimension and control function), the 3-round
// (2t-1)-approximation of Theorem 4.4, their Minimum Vertex Cover variants,
// the folklore baselines of Table 1, and the Lemma 5.17/5.18 minor
// construction. Each algorithm has a centralized implementation on the
// CSR (used by the experiment harness at scale) and, where the paper
// claims a round bound, a message-passing implementation for the
// internal/local simulator. A message-passing process gathers its view
// and runs the centralized steps on the view's CSR, reading the answer at
// its own vertex; Algorithm 1 and its vertex-cover variant then flood
// their residual component and solve it with the centralized
// component-solve dispatch. The outputs are tested to coincide with the
// centralized drivers and with the adjacency-list spec oracles in the
// package's tests.
package core

import "fmt"

// ControlFunction is the control function f of an asymptotic-dimension
// cover (§3): r-components of each cover class are f(r)-bounded.
type ControlFunction func(r int) int

// K2tControlFunction returns the control function f(r) = (5r+18)t that [3,
// Lemma 7.1] provides for the class of K_{2,t}-minor-free graphs (asymptotic
// dimension 1), as cited right after Lemma 4.2.
func K2tControlFunction(t int) ControlFunction {
	return func(r int) int { return (5*r + 18) * t }
}

// M32 is the local 1-cut radius m3.2 = f(5) + 2 from Lemma 3.2.
func M32(f ControlFunction) int { return f(5) + 2 }

// M33 is the local 2-cut radius m3.3 = f(11) + 4 from Lemma 3.3. (The
// paper uses f(11)+4 in the statement and f(11)+5 inside Claim 5.13; we
// take the statement's value — the algorithm is valid for any radius.)
func M33(f ControlFunction) int { return f(11) + 4 }

// Params are the radii driving Algorithm 1. The returned set is a valid
// dominating set for every choice; the radii trade the approximation
// constant (larger radii => fewer local cuts => closer to the analysis)
// against locality (larger radii => more rounds and larger residual
// components to brute-force).
type Params struct {
	// R1 is the local 1-cut radius (paper: m3.2(C_t)).
	R1 int `json:"r1"`
	// R2 is the local 2-cut / interesting-vertex radius (paper:
	// m3.3(C_t)).
	R2 int `json:"r2"`
	// MaxBruteComponent caps the exact per-component solve; larger
	// residual components fall back to the greedy solver (reported in the
	// result). Zero selects DefaultMaxBruteComponent.
	MaxBruteComponent int `json:"max_brute_component,omitempty"`
}

// DefaultMaxBruteComponent bounds the exact brute-force component size
// (Algorithm 1 step 4, the pipeline's ComponentSolve stage). The bitset
// engine in internal/mds solves the workloads' structured residual
// components of this size in milliseconds — the old adjacency-list
// search forced the previous default of 64 — so more components get
// their true optimum instead of the greedy fallback. The engine is still
// exponential in the worst case (a grid-like 121-vertex residual costs
// ~0.7M nodes ≈ 2s; adversarial inputs are unbounded), which is why
// every brute call site pairs the cap with BruteNodeBudget.
const DefaultMaxBruteComponent = 128

// BruteNodeBudget bounds each per-component exact solve in search nodes;
// on exhaustion the component falls back to the greedy solver (counted
// in BruteFallbacks) instead of stalling. The budget admits every
// structured residual the workloads produce (a full 11x11-grid residual,
// the worst observed, needs ~0.7M nodes) while capping adversarial
// user-supplied components — the mdsd serving path brute-forces whatever
// arrives in a request — at a few seconds. Node counts are
// input-deterministic, so the fallback decision is too, keeping pipeline
// and sequential Alg1 output-identical.
const BruteNodeBudget = 1_500_000

// PaperParams returns the radii of Theorem 4.1 for K_{2,t}-minor-free
// graphs: R1 = m3.2 = 43t+2 and R2 = m3.3 = 73t+4. These are far larger
// than the diameter of any simulatable instance (by design the analysis is
// not tight); use PracticalParams for experiments.
func PaperParams(t int) Params {
	f := K2tControlFunction(t)
	return Params{R1: M32(f), R2: M33(f)}
}

// AsdimParams returns the Algorithm 2 radii for a class of asymptotic
// dimension d with control function f (Theorem 4.3). The dimension enters
// the analysis constants, not the radii.
func AsdimParams(f ControlFunction) Params {
	return Params{R1: M32(f), R2: M33(f)}
}

// PracticalParams returns small radii suitable for measurement: local cuts
// are detected in radius-4 balls. Empirically this already yields ratios
// far below 50 on the paper's classes (see EXPERIMENTS.md).
func PracticalParams() Params {
	return Params{R1: 4, R2: 4}
}

// Normalized returns p with defaults applied, or an error for bad radii.
// The service layer canonicalizes request params through it so that cache
// keys treat an explicit default and an omitted field identically.
func (p Params) Normalized() (Params, error) { return p.normalized() }

// normalized returns p with defaults applied, or an error for bad radii.
func (p Params) normalized() (Params, error) {
	if p.R1 < 1 || p.R2 < 2 {
		return p, fmt.Errorf("core: invalid radii R1=%d (need >= 1), R2=%d (need >= 2)", p.R1, p.R2)
	}
	if p.MaxBruteComponent <= 0 {
		p.MaxBruteComponent = DefaultMaxBruteComponent
	}
	return p, nil
}

// GatherRadius is the adjacency-knowledge radius Algorithm 1's decision
// phase needs: local 1-cuts are decided in N^R1[v], interesting pairs
// {u, v} in N^R2[{u,v}] ⊆ N^{2R2}[v], twin reduction adds 2, and deciding
// the participant status (not in X ∪ I ∪ U) of the vertex's own neighbors —
// needed to flood residual components — adds 3 more. The distributed
// implementation spends GatherRadius()+2 rounds collecting it (the gather
// protocol learns adjacency to distance r in r+2 rounds).
func (p Params) GatherRadius() int {
	r := p.R1
	if 2*p.R2 > r {
		r = 2 * p.R2
	}
	return r + 5
}
