// The width-2 elimination DP, shared by dominating set with a required
// mask (B-domination) and vertex cover: the standard tree-decomposition DP
// (Telle & Proskurowski, SIAM J. Discrete Math. 1997), exact in linear
// time on every treewidth-<=2 input — all of this repository's workload
// classes, where branch and bound degrades badly.
//
// Decomposition: repeatedly eliminate the smallest-index vertex of current
// degree <= 2, adding a fill edge between its two neighbors when they are
// not adjacent. The bag of v is {v} ∪ curN(v); its parent is the bag of
// the member of curN(v) eliminated first. Every real edge lies inside the
// bag of its first-eliminated end.
//
// DP: a profile gives each slot of a bag (slot 0 the eliminated vertex,
// then the rest ascending) a state, as base-rule.states() digits, slot 0
// least significant. A vertex is counted and settled in its own bag:
// earlier-eliminated neighbors report through child bags.
package mds

import (
	"fmt"
	"slices"

	"localmds/internal/graph"
)

// tw2Decomp is a width-2 tree decomposition. Bags are numbered in
// elimination order, so children precede their parents.
type tw2Decomp struct {
	v     []int32    // bag i forgets v[i]
	rest  [][2]int32 // the other members, ascending: rest[i][:nrest[i]]
	nrest []uint8
	// Bag i's children, ascending: firstKid[i], then nextKid of each.
	firstKid, nextKid []int32
}

// buildTW2 eliminates c's vertices, or fails when c has treewidth above
// two. A fill edge only replaces the eliminated neighbor, so current
// degrees never rise: a vertex that reaches degree <= 2 stays eligible,
// and a min-heap of eligible vertices yields the smallest-index pick.
func buildTW2(c *graph.CSR) (*tw2Decomp, error) {
	n := c.N()
	deg, pos := make([]int32, n), make([]int32, n) // pos: elimination step, -1 while live
	eligible := make([]int32, 0, n)
	for v := range n {
		deg[v], pos[v] = int32(c.Degree(v)), -1
		if deg[v] <= 2 {
			eligible = append(eligible, int32(v)) // ascending, so a heap
		}
	}
	// Fill edges: per-vertex linked lists over flat arrays.
	fillHead, fillCnt := slices.Repeat([]int32{-1}, n), make([]int32, n)
	var fillTo, fillNext []int32
	addFill := func(a, b int32) {
		fillTo, fillNext = append(fillTo, b), append(fillNext, fillHead[a])
		fillHead[a] = int32(len(fillTo) - 1)
		fillCnt[a]++
	}
	drop := func(u int32) {
		if deg[u]--; deg[u] == 2 {
			eligible = heapPush(eligible, u)
		}
	}
	d := &tw2Decomp{v: make([]int32, n), rest: make([][2]int32, n), nrest: make([]uint8, n)}
	for step := range int32(n) {
		if len(eligible) == 0 {
			return nil, fmt.Errorf("mds: treewidth exceeds 2 (no low-degree vertex at step %d)", step)
		}
		var v int32
		v, eligible = heapPop(eligible)
		r, k := &d.rest[step], 0
		for _, u := range c.Row(int(v)) {
			if pos[u] < 0 {
				r[k], k = u, k+1
			}
		}
		for e := fillHead[v]; e >= 0; e = fillNext[e] {
			if u := fillTo[e]; pos[u] < 0 {
				r[k], k = u, k+1
			}
		}
		pos[v], d.v[step], d.nrest[step] = step, v, uint8(k)
		switch k {
		case 1:
			drop(r[0])
		case 2:
			if r[0] > r[1] {
				r[0], r[1] = r[1], r[0]
			}
			a, b := r[0], r[1]
			if fillCnt[b] < fillCnt[a] {
				a, b = b, a
			}
			_, adjacent := slices.BinarySearch(c.Row(int(a)), b)
			for e := fillHead[a]; e >= 0 && !adjacent; e = fillNext[e] {
				adjacent = fillTo[e] == b
			}
			if adjacent {
				drop(a)
				drop(b)
			} else {
				addFill(a, b)
				addFill(b, a)
			}
		}
	}
	// Link each bag under its parent, the rest member eliminated first.
	d.firstKid, d.nextKid = slices.Repeat([]int32{-1}, n), slices.Repeat([]int32{-1}, n)
	for i := n - 1; i >= 0; i-- {
		p := int32(-1)
		for _, u := range d.rest[i][:d.nrest[i]] {
			if p < 0 || pos[u] < p {
				p = pos[u]
			}
		}
		if p >= 0 {
			d.nextKid[i], d.firstKid[p] = d.firstKid[p], int32(i)
		}
	}
	return d, nil
}

// heapPush and heapPop keep h a binary min-heap.
func heapPush(h []int32, x int32) []int32 {
	h = append(h, x)
	for i := len(h) - 1; i > 0 && h[(i-1)/2] > h[i]; i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	return h
}

func heapPop(h []int32) (int32, []int32) {
	top, last := h[0], len(h)-1
	h[0], h = h[last], h[:last]
	for i, m := 0, 1; m < len(h); i, m = m, 2*m+1 {
		if m+1 < len(h) && h[m+1] < h[m] {
			m++
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
	}
	return top, h
}

// bagRule is the per-problem part of the elimination DP. A bag passes its
// k <= 3 slot states in st; adj[a] has bit b set for a real edge a–b.
type bagRule interface {
	states() int
	in() int // the state of a vertex in the solution
	// base reports whether the states are consistent before any child is
	// folded in.
	base(st, adj [3]int, k int) bool
	// join merges a child's state c for a shared vertex into the parent's
	// state p: the new parent state, or -1 when the two disagree.
	join(p, c int) int
	// forget reports whether v may leave the DP in state s.
	forget(v, s int) bool
}

const (
	dpInf     = 1 << 29
	dpMaxBag  = 27 // profiles of a full bag: 3^3
	dpMaxRest = 9  // profiles of a bag's rest: 3^2
)

// solveTW2 returns a minimum solution for rule on c, ascending, or an
// error when c has treewidth above two. Profiles are enumerated in
// ascending order, children fold in bag order and a strict < keeps the
// first minimum, so the set is a function of c alone.
func solveTW2(c *graph.CSR, rule bagRule) ([]int, error) {
	d, err := buildTW2(c)
	if err != nil {
		return nil, err
	}
	n, base, in := len(d.v), rule.states(), rule.in()
	pw := [4]int{1, base, base * base, base * base * base}
	var join [3][3]int
	for p := range base {
		for q := range base {
			join[p][q] = rule.join(p, q)
		}
	}
	var digit [dpMaxBag][3]int // digit[q][a]: slot a's state in profile q
	for q := range pw[3] {
		digit[q] = [3]int{q % base, q / base % base, q / pw[2]}
	}
	// baseOK[k][mask][q] caches rule.base for a k-slot bag whose in-bag
	// edges are mask (bit a+b-1 for slots a > b); a row is filled the
	// first time a bag of that shape appears.
	var baseOK [4][8][dpMaxBag]bool
	var baseDone [4][8]bool
	up := make([]int32, n*dpMaxRest)  // up[i*dpMaxRest+p]: best cost of bag i's subtree, rest profile p
	upQ := make([]uint8, n*dpMaxRest) // the full profile attaining it
	// back[ch*dpMaxBag+q]: folding child ch reached its parent's profile q
	// from the profile in the high byte, with ch's rest profile in the low.
	back := make([]uint16, n*dpMaxBag)
	var full, next [dpMaxBag]int32
	for i := range n {
		slots := [3]int32{d.v[i], d.rest[i][0], d.rest[i][1]}
		k := 1 + int(d.nrest[i])
		var adj [3]int
		mask := 0
		for a := 1; a < k; a++ {
			for b := range a {
				if _, ok := slices.BinarySearch(c.Row(int(slots[a])), slots[b]); ok {
					adj[a] |= 1 << b
					adj[b] |= 1 << a
					mask |= 1 << (a + b - 1)
				}
			}
		}
		size := pw[k]
		ok := &baseOK[k][mask]
		if !baseDone[k][mask] {
			baseDone[k][mask] = true
			for q := range size {
				ok[q] = rule.base(digit[q], adj, k)
			}
		}
		for q := range size {
			full[q] = dpInf
			if ok[q] {
				full[q] = 0
				if digit[q][0] == in {
					full[q] = 1
				}
			}
		}
		for ch := d.firstKid[i]; ch >= 0; ch = d.nextKid[ch] {
			crest := d.rest[ch][:d.nrest[ch]]
			var at [2]int // each child rest member's slot here
			for j, u := range crest {
				at[j] = slices.Index(slots[:k], u)
			}
			for q := range size {
				next[q] = dpInf
			}
			for q := range size {
				if full[q] >= dpInf {
					continue
				}
				for cp := range pw[len(crest)] {
					cost := full[q] + up[int(ch)*dpMaxRest+cp]
					nq := q
					for j := 0; j < len(crest) && nq >= 0; j++ {
						ps := digit[q][at[j]]
						if s := join[ps][digit[cp][j]]; s >= 0 {
							nq += (s - ps) * pw[at[j]]
						} else {
							nq = -1
						}
					}
					if nq >= 0 && cost < next[nq] {
						next[nq] = cost
						back[int(ch)*dpMaxBag+nq] = uint16(q<<8 | cp)
					}
				}
			}
			full = next
		}
		row := up[i*dpMaxRest : (i+1)*dpMaxRest]
		for p := range row {
			row[p] = dpInf
		}
		for q := range size {
			if full[q] < row[q/base] && rule.forget(int(d.v[i]), digit[q][0]) {
				row[q/base] = full[q]
				upQ[i*dpMaxRest+q/base] = uint8(q)
			}
		}
	}
	// Top-down: parents follow their children, so walk the bags backwards,
	// each taking the rest profile its parent chose (roots: 0), and unwind
	// each bag's folds from its last child.
	prof := make([]uint8, n)
	var sol []int
	var kids []int32
	for i := n - 1; i >= 0; i-- {
		q := int(upQ[i*dpMaxRest+int(prof[i])])
		if digit[q][0] == in {
			sol = append(sol, int(d.v[i]))
		}
		kids = kids[:0]
		for ch := d.firstKid[i]; ch >= 0; ch = d.nextKid[ch] {
			kids = append(kids, ch)
		}
		for _, ch := range slices.Backward(kids) {
			b := back[int(ch)*dpMaxBag+q]
			prof[ch], q = uint8(b), int(b>>8)
		}
	}
	slices.Sort(sol)
	return sol, nil
}

// mdsRule is B-domination: states in, dominated, undominated; a required
// vertex may not be forgotten undominated.
type mdsRule struct{ required []bool }

const (
	mdsIn = iota
	mdsDom
	mdsUndom
)

func (mdsRule) states() int { return 3 }
func (mdsRule) in() int     { return mdsIn }

// base: a vertex outside the set is dominated exactly when an in-bag
// neighbor is in it; children add domination through join.
func (mdsRule) base(st, adj [3]int, k int) bool {
	for a := range k {
		dom := false
		for b := range k {
			dom = dom || adj[a]>>b&1 != 0 && st[b] == mdsIn
		}
		if st[a] != mdsIn && dom != (st[a] == mdsDom) {
			return false
		}
	}
	return true
}

func (mdsRule) join(p, c int) int {
	if (p == mdsIn) != (c == mdsIn) {
		return -1
	}
	return min(p, c)
}

func (r mdsRule) forget(v, s int) bool { return s != mdsUndom || !r.required[v] }

// mvcRule is vertex cover: states out, in; every in-bag edge needs an end
// in the cover.
type mvcRule struct{}

const (
	mvcOut = iota
	mvcIn
)

func (mvcRule) states() int { return 2 }
func (mvcRule) in() int     { return mvcIn }

func (mvcRule) base(st, adj [3]int, k int) bool {
	for a := range k {
		for b := range a {
			if adj[a]>>b&1 != 0 && st[a] == mvcOut && st[b] == mvcOut {
				return false
			}
		}
	}
	return true
}

func (mvcRule) join(p, c int) int {
	if p != c {
		return -1
	}
	return p
}

func (mvcRule) forget(int, int) bool { return true }
