package core

import (
	"fmt"
	"sort"

	"localmds/internal/graph"
	"localmds/internal/mds"
)

// MinorBoundResult carries the Lemma 5.17/5.18 construction: a bipartite
// minor H = (A ⊔ B) of G[N²[S]] with B contracted around a dominating set,
// A edgeless with minimum degree 2, and |A| >= |D2 ∩ S \ D| / 2. On
// K_{2,t}-minor-free graphs Lemma 5.18 forces |A| <= (t-1)|B|, which is the
// engine of Theorem 4.4's (2t-1) ratio; Figures 1 and 2 of the paper
// illustrate exactly this construction.
type MinorBoundResult struct {
	// H is the constructed minor.
	H *graph.Graph
	// A and B index H's two sides (H labels).
	A, B []int
	// D is the dominating set the branch sets were grown around (g
	// labels).
	D []int
	// D2Count is |D2(g)| — the size of the Theorem 4.4 solution before
	// twin considerations.
	D2Count int
}

// BuildMinorBound runs the Lemma 5.17 construction on c (taken as its own
// N²[S] with S = V): it contracts a branch set around every vertex of a
// minimum dominating set D (side B), keeps the vertices of D2 \ D whose
// degree-2 witness survives as side A, removes A-A edges by the red-edge
// contraction of Figure 1, and deletes the remaining A-A edges.
func BuildMinorBound(c *graph.CSR) (*MinorBoundResult, error) {
	n := c.N()
	d, err := mds.ExactMDS(c, mds.ExactOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: minor bound needs OPT: %w", err)
	}
	inD := make([]bool, n)
	for _, v := range d {
		inD[v] = true
	}
	var d2 []int
	inD2 := make([]bool, n)
	for v := 0; v < n; v++ {
		if gammaAtLeastTwo(c, v) {
			d2 = append(d2, v)
			inD2[v] = true
		}
	}

	// Branch sets b_i: N[d_i] minus (D2 \ D) minus vertices already used
	// minus later dominators (Lemma 5.17's definition).
	used := make([]bool, n)
	branchOf := make([]int, n) // vertex -> branch index, or -1
	for i := range branchOf {
		branchOf[i] = -1
	}
	for i, di := range d {
		for _, u := range append([]int32{int32(di)}, c.Row(di)...) {
			v := int(u)
			if used[v] {
				continue
			}
			if inD2[v] && !inD[v] {
				continue
			}
			if inD[v] && v != di {
				continue
			}
			used[v] = true
			branchOf[v] = i
		}
	}

	// Side A: vertices of (D2 ∩ S) \ D with two disjoint short paths to
	// distinct dominators. Per Lemma 5.17 every such vertex has degree >=
	// 2 toward B after contraction.
	var aVerts []int
	for v := 0; v < n; v++ {
		if inD2[v] && !inD[v] && branchOf[v] < 0 {
			aVerts = append(aVerts, v)
		}
	}

	// Contract: H vertices = A ∪ B. Edges: between A vertex a and branch i
	// iff some vertex of branch i is adjacent to a. A-A adjacency handled
	// below (isolated A vertices keep their >= 2 branch neighbors; the
	// dominated-set trick of Lemma 5.16/5.17 contracts half of J into B).
	k := len(d)
	aIndex := make(map[int]int, len(aVerts))
	for i, v := range aVerts {
		aIndex[v] = i
	}
	h := graph.New(k + len(aVerts))
	addAB := func(aPos, branch int) {
		u, w := k+aPos, branch
		if !h.HasEdge(u, w) {
			h.AddEdge(u, w)
		}
	}
	// A-A edges of the intermediate minor (before the deletion step).
	type aPair struct{ x, y int }
	var aaEdges []aPair
	for u := 0; u < n; u++ {
		for _, w := range c.Row(u) {
			v := int(w)
			if v < u {
				continue
			}
			ai, aOK := aIndex[u]
			bj := branchOf[v]
			switch {
			case aOK && bj >= 0:
				addAB(ai, bj)
			case branchOf[u] >= 0 && aIndex2(aIndex, v) >= 0:
				addAB(aIndex[v], branchOf[u])
			case branchOf[u] >= 0 && bj >= 0 && branchOf[u] != bj:
				bi, bj2 := branchOf[u], bj
				if !h.HasEdge(bi, bj2) {
					h.AddEdge(bi, bj2)
				}
			case aOK && aIndex2(aIndex, v) >= 0:
				aaEdges = append(aaEdges, aPair{x: ai, y: aIndex[v]})
			}
		}
	}

	// Lemma 5.17's final trick: J = non-isolated vertices of H[A]; a
	// dominating set D' of H[A][J] with |D'| <= |J|/2 (Ore) is contracted
	// into adjacent branches, the rest keep two B neighbors after the
	// contraction; then all A-A edges are deleted. We realize the effect
	// by dropping D' from A and keeping the remaining vertices with the
	// B-adjacency they already have (every vertex of J \ D' is adjacent to
	// two branches: its own dominators plus the contracted neighbor's
	// branch). For measurement purposes we conservatively drop ALL of J's
	// smaller half via a greedy matching: each matched pair loses one
	// vertex.
	drop := make(map[int]bool)
	matched := make(map[int]bool)
	for _, e := range aaEdges {
		if !matched[e.x] && !matched[e.y] {
			matched[e.x], matched[e.y] = true, true
			drop[e.x] = true // contract the smaller-indexed endpoint away
		}
	}
	// Rebuild H without dropped A vertices and without A-A edges.
	var keep []int
	for i := 0; i < k; i++ {
		keep = append(keep, i)
	}
	var aFinal []int
	for i := range aVerts {
		if !drop[i] {
			keep = append(keep, k+i)
			aFinal = append(aFinal, k+i)
		}
	}
	hh, idx := h.Induced(keep)
	// Re-express indices after induction.
	oldToNew := make(map[int]int, len(idx))
	for newI, oldI := range idx {
		oldToNew[oldI] = newI
	}
	var aSide, bSide []int
	for i := 0; i < k; i++ {
		bSide = append(bSide, oldToNew[i])
	}
	for _, old := range aFinal {
		aSide = append(aSide, oldToNew[old])
	}
	// Drop A vertices with degree < 2 (their witness paths were consumed
	// by other branch sets); Lemma 5.17 guarantees at least half survive
	// in the paper's careful construction — the experiments measure the
	// realized fraction.
	var aKeep []int
	var finalKeep []int
	finalKeep = append(finalKeep, bSide...)
	for _, a := range aSide {
		if hh.Degree(a) >= 2 {
			aKeep = append(aKeep, a)
			finalKeep = append(finalKeep, a)
		}
	}
	sort.Ints(finalKeep)
	hFinal, idx2 := hh.Induced(finalKeep)
	oldToNew2 := make(map[int]int, len(idx2))
	for newI, oldI := range idx2 {
		oldToNew2[oldI] = newI
	}
	res := &MinorBoundResult{H: hFinal, D: d, D2Count: len(d2)}
	for _, b := range bSide {
		res.B = append(res.B, oldToNew2[b])
	}
	for _, a := range aKeep {
		res.A = append(res.A, oldToNew2[a])
	}
	// Delete any remaining A-A edges (the construction's last step).
	for i := 0; i < len(res.A); i++ {
		for j := i + 1; j < len(res.A); j++ {
			res.H.RemoveEdge(res.A[i], res.A[j])
		}
	}
	// Recheck degrees after deletion.
	var aFinal2 []int
	for _, a := range res.A {
		if res.H.Degree(a) >= 2 {
			aFinal2 = append(aFinal2, a)
		}
	}
	res.A = aFinal2
	return res, nil
}

func aIndex2(m map[int]int, v int) int {
	if i, ok := m[v]; ok {
		return i
	}
	return -1
}

// VerifyMinorBound checks the Lemma 5.18 hypothesis and conclusion on the
// constructed H for the given t: H[A] edgeless, every A vertex of degree
// >= 2, and |A| <= (t-1)|B| (the conclusion holds whenever H is
// K_{2,t}-minor-free, which it inherits from g).
func VerifyMinorBound(res *MinorBoundResult, t int) error {
	for i := 0; i < len(res.A); i++ {
		for j := i + 1; j < len(res.A); j++ {
			if res.H.HasEdge(res.A[i], res.A[j]) {
				return fmt.Errorf("core: A-A edge {%d,%d} present", res.A[i], res.A[j])
			}
		}
	}
	for _, a := range res.A {
		if res.H.Degree(a) < 2 {
			return fmt.Errorf("core: A vertex %d has degree %d < 2", a, res.H.Degree(a))
		}
	}
	if len(res.B) > 0 && len(res.A) > (t-1)*len(res.B) {
		return fmt.Errorf("core: |A| = %d exceeds (t-1)|B| = %d", len(res.A), (t-1)*len(res.B))
	}
	return nil
}
