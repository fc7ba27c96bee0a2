// The adjacency-list exact DPs that shipped before the CSR elimination DP
// in tw2dp.go replaced them: the map-based width-2 dominating-set DP, its
// vertex-cover copy and the forest DP, kept verbatim as the oracle for
// TestTW2MatchesOracle and FuzzExactDP. Nothing outside tests calls them.
package mds

import (
	"fmt"
	"sort"

	"localmds/internal/graph"
)

// Treewidth-2 exact MDS.
//
// Every workload class in this repository (fans, ladder strips, cycles,
// cacti, outerplanar graphs, and their cut-vertex gluings from Ding's
// structure theorem) has treewidth at most two, where the branch-and-bound
// solver degrades badly. This file implements the classic dominating-set
// dynamic program over a width-2 tree decomposition obtained from a
// degree-<=2 elimination order, giving exact optima in linear-ish time at
// any instance size.
//
// Decomposition: repeatedly eliminate a vertex of current degree <= 2,
// adding a fill edge between its two neighbors when needed. The bag of v is
// {v} ∪ curN(v); the parent of v's bag is the bag of the member of curN(v)
// eliminated first. This is a valid tree decomposition of the chordal
// completion with bags of size <= 3, each real edge inside the bag of its
// first-eliminated endpoint.
//
// DP state: per bag vertex one of three values — in the set (stIn),
// not in the set but dominated by subtree decisions (stDom), not in the set
// and not yet dominated (stUndom). A vertex's membership is counted in its
// own bag (where it is forgotten), and its domination is resolved there
// too: all potential dominators are either in the bag (later-eliminated
// real neighbors) or belong to child bags (earlier-eliminated neighbors,
// whose contribution arrives through the child profiles).

// vertexState is the per-vertex DP value.
type vertexState uint8

const (
	stIn vertexState = iota
	stDom
	stUndom
	numStates
)

// twBag is one elimination bag.
type twBag struct {
	v        int   // the vertex eliminated (forgotten) here
	rest     []int // the other bag members, sorted (0..2 of them)
	parent   int   // bag index of the parent, -1 for roots
	children []int // bag indices attaching here
}

// buildTW2Decomposition returns the elimination bags, or an error when the
// graph has treewidth greater than two (no degree-<=2 vertex available).
func buildTW2Decomposition(g *graph.Graph) ([]twBag, error) {
	n := g.N()
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[int]bool, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			adj[v][u] = true
		}
	}
	eliminated := make([]bool, n)
	elimPos := make([]int, n)
	bags := make([]twBag, 0, n)
	bagIndex := make(map[int]int, n) // vertex -> its bag index
	for step := 0; step < n; step++ {
		// Pick the smallest-index vertex of current degree <= 2.
		pick := -1
		for v := 0; v < n; v++ {
			if !eliminated[v] && len(adj[v]) <= 2 {
				pick = v
				break
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("mds: treewidth exceeds 2 (no low-degree vertex at step %d)", step)
		}
		rest := make([]int, 0, 2)
		for u := range adj[pick] {
			rest = append(rest, u)
		}
		sort.Ints(rest)
		if len(rest) == 2 {
			a, b := rest[0], rest[1]
			if !adj[a][b] {
				adj[a][b] = true
				adj[b][a] = true
			}
		}
		for _, u := range rest {
			delete(adj[u], pick)
		}
		eliminated[pick] = true
		elimPos[pick] = step
		bagIndex[pick] = len(bags)
		bags = append(bags, twBag{v: pick, rest: rest, parent: -1})
	}
	// Parents: the member of rest eliminated first.
	for i := range bags {
		first := -1
		for _, u := range bags[i].rest {
			if first < 0 || elimPos[u] < elimPos[first] {
				first = u
			}
		}
		if first >= 0 {
			p := bagIndex[first]
			bags[i].parent = p
			bags[p].children = append(bags[p].children, i)
		}
	}
	return bags, nil
}

// profile encodes the states of a bag's rest vertices (at most two), in
// rest order: rest[0]*1 + rest[1]*3.
type profile uint8

func numProfiles(restLen int) int {
	p := 1
	for i := 0; i < restLen; i++ {
		p *= int(numStates)
	}
	return p
}

func stateOf(p profile, slot int) vertexState {
	for i := 0; i < slot; i++ {
		p /= profile(numStates)
	}
	return vertexState(p % profile(numStates))
}

func withState(p profile, slot int, s vertexState) profile {
	base := profile(1)
	for i := 0; i < slot; i++ {
		base *= profile(numStates)
	}
	cur := stateOf(p, slot)
	return p - base*profile(cur) + base*profile(s)
}

const twInf = 1 << 29

// exactMDSTreewidth2 solves MDS exactly on a treewidth-<=2 graph, returning
// the solution set, or an error if the decomposition fails.
func exactMDSTreewidth2(g *graph.Graph) ([]int, error) {
	return exactTW2BDominating(g, nil)
}

// exactTW2BDominating solves the B-dominating problem (MDS(G, B), §2) on a
// treewidth-<=2 graph: only vertices with required[v] set must end up
// dominated. required == nil requires everyone.
func exactTW2BDominating(g *graph.Graph, required []bool) ([]int, error) {
	bags, err := buildTW2Decomposition(g)
	if err != nil {
		return nil, err
	}
	mustDominate := func(v int) bool { return required == nil || required[v] }
	type entry struct {
		cost int
		// choice records, for reconstruction: the state of bag.v plus the
		// chosen child profiles, indexed as in bag.children.
		vState vertexState
		childP []profile
	}
	// up[i][p]: best cost for bag i when its rest vertices carry profile p
	// (their set-membership and domination-from-below as seen by the
	// parent).
	up := make([][]entry, len(bags))

	realAdj := func(a, b int) bool { return g.HasEdge(a, b) }

	for i, bag := range bags { // children precede parents by construction
		restLen := len(bag.rest)
		slots := append([]int{bag.v}, bag.rest...) // slot 0 = v
		// full[q]: best cost over full-bag profiles q (slot 0 = v state,
		// slots 1.. = rest states), before enforcing v's resolution.
		fullSize := numProfiles(restLen + 1)
		full := make([]int, fullSize)
		fullChoice := make([][]profile, fullSize)
		for q := range full {
			full[q] = 0
			fullChoice[q] = make([]profile, len(bag.children))
		}
		// The base cost: v IN costs 1; rest vertices are counted in their
		// own bags. A state is only self-consistent if the in-bag real
		// edges justify claimed domination... domination claims can also
		// come from children, so consistency is enforced by construction:
		// we build profiles from "chosen in-bits" plus accumulated
		// domination, not free-form. Concretely: enumerate in-bits of all
		// slots; domination bits start as "dominated by an in-bag real
		// neighbor that is IN"; children then OR in their contributions.
		// Profiles with stDom that lack any such justification are
		// unreachable and stay at twInf.
		for q := 0; q < fullSize; q++ {
			full[q] = twInf
		}
		var inBits func(slot int, q profile)
		inBits = func(slot int, q profile) {
			if slot == len(slots) {
				cost := 0
				if stateOf(q, 0) == stIn {
					cost = 1
				}
				full[q] = cost
				return
			}
			inBits(slot+1, withState(q, slot, stIn))
			inBits(slot+1, withState(q, slot, stUndom))
		}
		inBits(0, 0)
		// Upgrade: in-bag real-edge domination (stUndom -> stDom when a
		// real in-bag neighbor is IN).
		upgraded := make([]int, fullSize)
		for q := range upgraded {
			upgraded[q] = twInf
		}
		for q := 0; q < fullSize; q++ {
			if full[q] >= twInf {
				continue
			}
			nq := profile(q)
			for a := 0; a < len(slots); a++ {
				if stateOf(profile(q), a) != stUndom {
					continue
				}
				for b := 0; b < len(slots); b++ {
					if a != b && stateOf(profile(q), b) == stIn && realAdj(slots[a], slots[b]) {
						nq = withState(nq, a, stDom)
						break
					}
				}
			}
			if full[q] < upgraded[nq] {
				upgraded[nq] = full[q]
			}
		}
		full = upgraded
		// Fold in children one at a time: child bag rest ⊆ slots. The
		// child profile must match in-bits on shared vertices; a child
		// stDom claim upgrades the shared vertex's state.
		for ci, c := range bag.children {
			child := bags[c]
			childSlots := make([]int, len(child.rest))
			for k, u := range child.rest {
				childSlots[k] = slotIndex(slots, u)
			}
			next := make([]int, fullSize)
			nextChoice := make([][]profile, fullSize)
			for q := range next {
				next[q] = twInf
			}
			for q := 0; q < fullSize; q++ {
				if full[q] >= twInf {
					continue
				}
				for cp := 0; cp < numProfiles(len(child.rest)); cp++ {
					centry := up[c][cp]
					if centry.cost >= twInf {
						continue
					}
					// Compatibility and resulting profile.
					nq := profile(q)
					ok := true
					for k, slot := range childSlots {
						cs := stateOf(profile(cp), k)
						ps := stateOf(nq, slot)
						if (cs == stIn) != (ps == stIn) {
							ok = false
							break
						}
						if cs == stDom && ps == stUndom {
							nq = withState(nq, slot, stDom)
						}
					}
					if !ok {
						continue
					}
					cost := full[q] + centry.cost
					if cost < next[nq] {
						next[nq] = cost
						nc := append([]profile(nil), fullChoice[q]...)
						if nc == nil {
							nc = make([]profile, len(bag.children))
						}
						nc[ci] = profile(cp)
						nextChoice[nq] = nc
					}
				}
			}
			full = next
			fullChoice = nextChoice
		}
		// Forget v: require it resolved; project onto rest profiles.
		up[i] = make([]entry, numProfiles(restLen))
		for p := range up[i] {
			up[i][p] = entry{cost: twInf}
		}
		for q := 0; q < fullSize; q++ {
			if full[q] >= twInf {
				continue
			}
			vs := stateOf(profile(q), 0)
			if vs == stUndom && mustDominate(bag.v) {
				continue
			}
			rp := profile(0)
			for k := range bag.rest {
				rp = withState(rp, k, stateOf(profile(q), k+1))
			}
			if full[q] < up[i][rp].cost {
				up[i][rp] = entry{cost: full[q], vState: vs, childP: fullChoice[q]}
			}
		}
	}

	// Collect: roots sum their best entries; reconstruct top-down.
	inSet := make([]bool, g.N())
	var walk func(bagIdx int, p profile) error
	walk = func(bagIdx int, p profile) error {
		e := up[bagIdx][p]
		if e.cost >= twInf {
			return fmt.Errorf("mds: treewidth DP reconstruction hit an infeasible entry")
		}
		if e.vState == stIn {
			inSet[bags[bagIdx].v] = true
		}
		for ci, c := range bags[bagIdx].children {
			if err := walk(c, e.childP[ci]); err != nil {
				return err
			}
		}
		return nil
	}
	for i, bag := range bags {
		if bag.parent >= 0 {
			continue
		}
		// Root bags have empty rest: single profile 0.
		if len(bag.rest) != 0 {
			return nil, fmt.Errorf("mds: root bag %d has nonempty rest %v", i, bag.rest)
		}
		if err := walk(i, 0); err != nil {
			return nil, err
		}
	}
	var sol []int
	for v, in := range inSet {
		if in {
			sol = append(sol, v)
		}
	}
	return sol, nil
}

func slotIndex(slots []int, u int) int {
	for i, s := range slots {
		if s == u {
			return i
		}
	}
	return -1
}

// exactMVCTreewidth2 solves Minimum Vertex Cover exactly on a
// treewidth-<=2 graph via the same elimination decomposition as the MDS DP,
// with two states per bag vertex (in / out of the cover). Every real edge
// lies inside the bag of its first-eliminated endpoint, where it is
// enforced; enforcing it again in other bags containing both endpoints is
// harmless. Membership is counted at the vertex's own (forget) bag.
func exactMVCTreewidth2(g *graph.Graph) ([]int, error) {
	bags, err := buildTW2Decomposition(g)
	if err != nil {
		return nil, err
	}
	type entry struct {
		cost   int
		vIn    bool
		childP []uint8
	}
	up := make([][]entry, len(bags))
	numP := func(k int) int { return 1 << k }
	bit := func(p uint8, slot int) bool { return p&(1<<slot) != 0 }

	for i, bag := range bags {
		slots := append([]int{bag.v}, bag.rest...)
		fullSize := numP(len(slots))
		full := make([]int, fullSize)
		fullChoice := make([][]uint8, fullSize)
		for q := 0; q < fullSize; q++ {
			// Enforce in-bag real edges.
			valid := true
			for a := 0; a < len(slots) && valid; a++ {
				for b := a + 1; b < len(slots); b++ {
					if g.HasEdge(slots[a], slots[b]) && !bit(uint8(q), a) && !bit(uint8(q), b) {
						valid = false
						break
					}
				}
			}
			if !valid {
				full[q] = twInf
				continue
			}
			if bit(uint8(q), 0) {
				full[q] = 1
			}
			fullChoice[q] = make([]uint8, len(bag.children))
		}
		for ci, c := range bag.children {
			child := bags[c]
			childSlots := make([]int, len(child.rest))
			for k, u := range child.rest {
				childSlots[k] = slotIndex(slots, u)
			}
			next := make([]int, fullSize)
			nextChoice := make([][]uint8, fullSize)
			for q := range next {
				next[q] = twInf
			}
			for q := 0; q < fullSize; q++ {
				if full[q] >= twInf {
					continue
				}
				for cp := 0; cp < numP(len(child.rest)); cp++ {
					centry := up[c][cp]
					if centry.cost >= twInf {
						continue
					}
					ok := true
					for k, slot := range childSlots {
						if bit(uint8(cp), k) != bit(uint8(q), slot) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					if cost := full[q] + centry.cost; cost < next[q] {
						next[q] = cost
						nc := append([]uint8(nil), fullChoice[q]...)
						if nc == nil {
							nc = make([]uint8, len(bag.children))
						}
						nc[ci] = uint8(cp)
						nextChoice[q] = nc
					}
				}
			}
			full = next
			fullChoice = nextChoice
		}
		// Forget v: project onto rest profiles.
		restSize := numP(len(bag.rest))
		up[i] = make([]entry, restSize)
		for p := range up[i] {
			up[i][p] = entry{cost: twInf}
		}
		for q := 0; q < fullSize; q++ {
			if full[q] >= twInf {
				continue
			}
			rp := uint8(q >> 1) // drop slot 0 (v)
			if full[q] < up[i][rp].cost {
				up[i][rp] = entry{cost: full[q], vIn: bit(uint8(q), 0), childP: fullChoice[q]}
			}
		}
	}

	inSet := make([]bool, g.N())
	var walk func(bagIdx int, p uint8)
	walk = func(bagIdx int, p uint8) {
		e := up[bagIdx][p]
		if e.vIn {
			inSet[bags[bagIdx].v] = true
		}
		for ci, c := range bags[bagIdx].children {
			walk(c, e.childP[ci])
		}
	}
	for i, bag := range bags {
		if bag.parent < 0 {
			walk(i, 0)
		}
	}
	var sol []int
	for v, in := range inSet {
		if in {
			sol = append(sol, v)
		}
	}
	return sol, nil
}

// exactMDSForest solves MDS on forests by the classic three-state tree DP
// (linear time), used automatically by ExactMDS when the input is acyclic:
// branch and bound has weak bounds exactly on trees.
//
// States per vertex: in the set; not in the set but dominated from below;
// not in the set and not yet dominated (the parent must take it).
func exactMDSForest(g *graph.Graph) []int {
	const (
		stIn = iota
		stDom
		stNeed
	)
	n := g.N()
	dp := make([][3]int, n)
	choice := make([][3][]int8, n) // per state: chosen state of each child
	children := make([][]int, n)
	parent := make([]int, n)
	var order []int // vertices in DFS post-order

	visited := make([]bool, n)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		// Iterative DFS to build children lists and post-order.
		stack := []int{root}
		parent[root] = -1
		visited[root] = true
		var pre []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			pre = append(pre, v)
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					parent[u] = v
					children[v] = append(children[v], u)
					stack = append(stack, u)
				}
			}
		}
		for i := len(pre) - 1; i >= 0; i-- {
			order = append(order, pre[i])
		}
	}

	const inf = 1 << 29
	for _, v := range order {
		kids := children[v]
		choice[v][stIn] = make([]int8, len(kids))
		choice[v][stDom] = make([]int8, len(kids))
		choice[v][stNeed] = make([]int8, len(kids))

		// stIn: v in S; each child free (v dominates it).
		in := 1
		for i, c := range kids {
			best, bestState := dp[c][stIn], int8(stIn)
			if dp[c][stDom] < best {
				best, bestState = dp[c][stDom], stDom
			}
			if dp[c][stNeed] < best {
				best, bestState = dp[c][stNeed], stNeed
			}
			in += best
			choice[v][stIn][i] = bestState
		}
		dp[v][stIn] = in

		// stNeed: v not in S, no child in S (else v would be dominated).
		need := 0
		for i, c := range kids {
			need += dp[c][stDom]
			choice[v][stNeed][i] = stDom
			if dp[c][stDom] >= inf {
				need = inf
			}
		}
		dp[v][stNeed] = min(need, inf)

		// stDom: v not in S, at least one child in S; other children are
		// stIn or stDom, whichever is cheaper; pay the smallest penalty to
		// force one child into S.
		if len(kids) == 0 {
			dp[v][stDom] = inf
		} else {
			total := 0
			bestPenalty := inf
			bestIdx := -1
			for i, c := range kids {
				freeBest, freeState := dp[c][stDom], int8(stDom)
				if dp[c][stIn] < freeBest {
					freeBest, freeState = dp[c][stIn], stIn
				}
				total += freeBest
				choice[v][stDom][i] = freeState
				if pen := dp[c][stIn] - freeBest; pen < bestPenalty {
					bestPenalty = pen
					bestIdx = i
				}
			}
			if total >= inf || bestPenalty >= inf {
				dp[v][stDom] = inf
			} else {
				dp[v][stDom] = total + bestPenalty
				choice[v][stDom][bestIdx] = stIn
			}
		}
	}

	// Reconstruct: walk each root with its optimal state.
	state := make([]int8, n)
	var sol []int
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if parent[v] < 0 {
			if dp[v][stIn] <= dp[v][stDom] {
				state[v] = stIn
			} else {
				state[v] = stDom
			}
		}
		st := state[v]
		if st == stIn {
			sol = append(sol, v)
		}
		for ci, c := range children[v] {
			state[c] = choice[v][st][ci]
		}
	}
	sort.Ints(sol)
	return sol
}

// legacyBDominating is ExactBDominating's dispatch as it was on adjacency
// lists: the oracle width-2 DP, then the engine within the vertex cap.
func legacyBDominating(g *graph.Graph, target []int) ([]int, error) {
	target = graph.Dedup(target)
	if len(target) == 0 {
		return nil, nil
	}
	required := make([]bool, g.N())
	for _, v := range target {
		required[v] = true
	}
	if sol, err := exactTW2BDominating(g, required); err == nil {
		return sol, nil
	}
	if g.N() > MaxExactMDSVertices {
		return nil, fmt.Errorf("mds: graph has %d vertices, exact solver capped at %d", g.N(), MaxExactMDSVertices)
	}
	return newEngine(g.Freeze(), target).solve(ExactOptions{})
}
