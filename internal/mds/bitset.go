// The word-packed branch-and-bound engine for exact B-dominating sets.
//
// ExactBDominating routes its hard cases here (after the width-2 DP
// declines). The design follows the reduction-plus-bounded-search shape
// of the measure-and-conquer / PACE-solver literature:
//
//   - Closed-neighborhood coverage masks are packed into []uint64 words
//     over a compact target index space, so residual coverage is a handful
//     of AND+popcount instructions instead of an O(deg) scan, and the
//     undominated set is a bitset updated incrementally with an undo trail
//     (no per-node `dominated []bool` allocation, no per-node sort.Slice).
//   - Reduction rules run to fixpoint at the root and as unit propagation
//     during search: a candidate u is dropped when its residual coverage
//     is contained in another candidate's (N[u]∩B ⊆ N[v]∩B subsumption,
//     which also swallows the classic leaf rule), and a candidate is
//     forced when it is some target's only remaining dominator.
//   - The lower bound is the max of the cover bound ⌈remaining/maxCover⌉
//     and a greedy disjoint-ball 2-packing: targets whose potential
//     dominator coverage is pairwise disjoint need pairwise distinct
//     dominators. This generalizes TwoPacking to B-domination and is what
//     closes the root gap on grids, the old solver's worst case.
//   - Branching picks the undominated target with the fewest live
//     dominators and tries them most-covering-first; each explored branch
//     then excludes its candidate from the remaining ones, so no solution
//     is enumerated twice.
//
// The search is allocation-free after construction: all stacks are
// preallocated from the greedy upper bound and grown amortized. The
// search is fully deterministic (all ties break on the lowest index), so
// identical inputs give identical sets.
package mds

import (
	"fmt"
	"math/bits"
	"sort"

	"localmds/internal/graph"
)

// engine is the bitset branch-and-bound state. Masks live in the compact
// target index space (bit i = target[i]); candidates are the vertices with
// at least one target in their closed neighborhood, which loses no optimal
// solution.
type engine struct {
	nt int // number of targets
	tw int // words per target mask
	nc int // number of candidates

	candVert []int32   // candidate index -> original vertex
	cover    []uint64  // nc rows of tw words: N[candidate] ∩ B
	coverers [][]int32 // target index -> covering candidate indices (ascending)
	ballMask []uint64  // nt rows of tw words: ∪ cover[c] over c ∈ coverers[t]

	alive  []bool   // candidate not subsumed / excluded
	u      []uint64 // undominated target bitset
	remain int      // popcount(u)

	chosen []int32  // picked candidates (search stack, root-forced prefix included)
	deltas []uint64 // per-pick newly-dominated mask, tw words each, aligned with chosen
	killed []int32  // exclusion/unit-kill trail, restored on frame exit

	best    []int32
	bestLen int

	nodes    int64
	maxNodes int64 // 0: unbounded
	aborted  bool

	branchBufs [][]int32 // per-depth branch candidate scratch
	covBufs    [][]int32 // per-depth residual-coverage keys, aligned with branchBufs
	pack       []uint64  // packing lower-bound scratch
}

// newEngine builds the packed state over a frozen CSR. target must be
// deduplicated, non-empty, and in range.
func newEngine(g *graph.CSR, target []int) *engine {
	n := g.N()
	nt := len(target)
	tw := (nt + 63) / 64
	tIdx := make([]int32, n)
	for i := range tIdx {
		tIdx[i] = -1
	}
	for i, v := range target {
		tIdx[v] = int32(i)
	}

	// Pass 1: identify candidates (vertices with a target in N[v]) and
	// count coverage for the shared coverers backing buffer.
	candVert := make([]int32, 0, n)
	coverCount := make([]int32, nt)
	for v := 0; v < n; v++ {
		hits := 0
		if tIdx[v] >= 0 {
			hits++
		}
		for _, u := range g.Row(v) {
			if tIdx[u] >= 0 {
				hits++
			}
		}
		if hits > 0 {
			candVert = append(candVert, int32(v))
		}
	}
	nc := len(candVert)

	// Pass 2: fill cover masks and count coverers per target.
	cover := make([]uint64, nc*tw)
	for c, v32 := range candVert {
		v := int(v32)
		mask := cover[c*tw : (c+1)*tw]
		if t := tIdx[v]; t >= 0 {
			mask[t>>6] |= 1 << (uint(t) & 63)
			coverCount[t]++
		}
		for _, u := range g.Row(v) {
			if t := tIdx[u]; t >= 0 {
				mask[t>>6] |= 1 << (uint(t) & 63)
				coverCount[t]++
			}
		}
	}

	// Pass 3: coverers lists share one backing array; ball masks are the
	// per-target union of their coverers' masks (the 2-packing ball).
	offsets := make([]int32, nt+1)
	for t := 0; t < nt; t++ {
		offsets[t+1] = offsets[t] + coverCount[t]
	}
	coverersBuf := make([]int32, offsets[nt])
	coverers := make([][]int32, nt)
	for t := 0; t < nt; t++ {
		coverers[t] = coverersBuf[offsets[t]:offsets[t]:offsets[t+1]]
	}
	ballMask := make([]uint64, nt*tw)
	for c := 0; c < nc; c++ {
		mask := cover[c*tw : (c+1)*tw]
		for w, word := range mask {
			for word != 0 {
				t := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				coverers[t] = append(coverers[t], int32(c))
				ball := ballMask[t*tw : (t+1)*tw]
				for i, m := range mask {
					ball[i] |= m
				}
			}
		}
	}

	u := make([]uint64, tw)
	for t := 0; t < nt; t++ {
		u[t>>6] |= 1 << (uint(t) & 63)
	}
	alive := make([]bool, nc)
	for c := range alive {
		alive[c] = true
	}
	return &engine{
		nt: nt, tw: tw, nc: nc,
		candVert: candVert, cover: cover, coverers: coverers, ballMask: ballMask,
		alive: alive, u: u, remain: nt,
		pack: make([]uint64, tw),
	}
}

// coverRow returns candidate c's packed coverage mask.
func (e *engine) coverRow(c int32) []uint64 {
	return e.cover[int(c)*e.tw : (int(c)+1)*e.tw]
}

// residCover returns |N[c] ∩ B ∩ U|: how many still-undominated targets
// picking c would cover.
func (e *engine) residCover(c int32) int {
	mask := e.coverRow(c)
	s := 0
	for w, word := range mask {
		s += bits.OnesCount64(word & e.u[w])
	}
	return s
}

// choose picks candidate c: records the newly-dominated delta on the undo
// trail and clears those targets from the undominated set.
func (e *engine) choose(c int32) {
	mask := e.coverRow(c)
	base := len(e.chosen) * e.tw
	if cap(e.deltas) < base+e.tw {
		e.deltas = append(e.deltas[:base], make([]uint64, e.tw)...)
	}
	e.deltas = e.deltas[:base+e.tw]
	for w, word := range mask {
		d := word & e.u[w]
		e.deltas[base+w] = d
		e.u[w] &^= d
		e.remain -= bits.OnesCount64(d)
	}
	e.chosen = append(e.chosen, c)
}

// unchoose reverts the latest choose.
func (e *engine) unchoose() {
	last := len(e.chosen) - 1
	base := last * e.tw
	for w := 0; w < e.tw; w++ {
		d := e.deltas[base+w]
		e.u[w] |= d
		e.remain += bits.OnesCount64(d)
	}
	e.chosen = e.chosen[:last]
	e.deltas = e.deltas[:base]
}

// undoTo pops the chosen stack to cMark and revives exclusion kills down
// to kMark — the single frame-exit path of search.
func (e *engine) undoTo(cMark, kMark int) {
	for len(e.chosen) > cMark {
		e.unchoose()
	}
	for len(e.killed) > kMark {
		c := e.killed[len(e.killed)-1]
		e.killed = e.killed[:len(e.killed)-1]
		e.alive[c] = true
	}
}

// record stores the chosen stack as the new incumbent.
func (e *engine) record() {
	e.best = append(e.best[:0], e.chosen...)
	e.bestLen = len(e.chosen)
}

// pickTarget scans the undominated targets for the one with the fewest
// live dominators (ties to the lowest index). It returns the target, its
// live-dominator count, and — when that count is one — the forced
// candidate.
func (e *engine) pickTarget() (pick int, minCnt int, forced int32) {
	pick, minCnt, forced = -1, e.nc+1, -1
	for w, word := range e.u {
		for word != 0 {
			t := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			cnt := 0
			var last int32 = -1
			for _, c := range e.coverers[t] {
				if e.alive[c] {
					cnt++
					last = c
					if cnt >= minCnt {
						break
					}
				}
			}
			if cnt < minCnt {
				pick, minCnt = t, cnt
				if cnt == 1 {
					forced = last
				} else {
					forced = -1
				}
				if cnt == 0 {
					return
				}
			}
		}
	}
	return
}

// lowerBound returns the strongest admissible increment for the current
// state: max of the cover bound ⌈remain/maxCover⌉ and the disjoint-ball
// 2-packing. maxCover ranges over live candidates only. A zero return
// with remain > 0 signals infeasibility (every remaining dominator
// excluded on this branch).
func (e *engine) lowerBound() int {
	maxCover := 0
	for c := 0; c < e.nc; c++ {
		if !e.alive[c] {
			continue
		}
		if r := e.residCover(int32(c)); r > maxCover {
			maxCover = r
		}
	}
	if maxCover == 0 {
		return 0
	}
	lb := (e.remain + maxCover - 1) / maxCover
	// Greedy 2-packing on the ball masks: repeatedly admit the target
	// whose dominator ball erases the fewest other candidates for the
	// packing. Each admitted target needs its own dominator, so the count
	// lower-bounds the remaining picks. Ball masks are static (they
	// include excluded candidates' coverage), which only weakens — never
	// breaks — the bound.
	copy(e.pack, e.u)
	packed := 0
	for {
		bestT, bestLoss := -1, e.nt+1
		for w, word := range e.pack {
			for word != 0 {
				t := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				ball := e.ballMask[t*e.tw : (t+1)*e.tw]
				loss := 0
				for i, m := range ball {
					loss += bits.OnesCount64(m & e.pack[i])
				}
				if loss < bestLoss {
					bestT, bestLoss = t, loss
				}
			}
		}
		if bestT < 0 {
			break
		}
		packed++
		ball := e.ballMask[bestT*e.tw : (bestT+1)*e.tw]
		for i, m := range ball {
			e.pack[i] &^= m
		}
	}
	if packed > lb {
		lb = packed
	}
	return lb
}

// frameBufs returns the per-depth branch scratch slices, growing the
// ladder on first use of a depth.
func (e *engine) frameBufs(depth int) ([]int32, []int32) {
	for len(e.branchBufs) <= depth {
		e.branchBufs = append(e.branchBufs, nil)
		e.covBufs = append(e.covBufs, nil)
	}
	return e.branchBufs[depth][:0], e.covBufs[depth][:0]
}

// search explores extensions of the current chosen stack. Unit
// propagation (forcing) runs first; then bounds; then exclusion branching
// on the scarcest target's dominators.
func (e *engine) search(depth int) {
	if e.aborted {
		return
	}
	e.nodes++
	if e.maxNodes > 0 && e.nodes > e.maxNodes {
		e.aborted = true
		return
	}
	cMark, kMark := len(e.chosen), len(e.killed)
	var pick int
	for {
		if len(e.chosen) >= e.bestLen {
			e.undoTo(cMark, kMark)
			return
		}
		if e.remain == 0 {
			e.record()
			e.undoTo(cMark, kMark)
			return
		}
		t, cnt, forced := e.pickTarget()
		if cnt == 0 { // all dominators of t excluded on this branch
			e.undoTo(cMark, kMark)
			return
		}
		if cnt == 1 {
			e.choose(forced)
			continue
		}
		pick = t
		break
	}
	lb := e.lowerBound()
	if lb == 0 || len(e.chosen)+lb >= e.bestLen {
		e.undoTo(cMark, kMark)
		return
	}
	// Branch candidates: live dominators of pick, most residual coverage
	// first, index ascending on ties (insertion sort into per-depth
	// scratch keeps the hot path allocation-free).
	cands, covs := e.frameBufs(depth)
	for _, c := range e.coverers[pick] {
		if !e.alive[c] {
			continue
		}
		rc := int32(e.residCover(c))
		i := len(cands)
		cands = append(cands, 0)
		covs = append(covs, 0)
		for i > 0 && covs[i-1] < rc {
			cands[i], covs[i] = cands[i-1], covs[i-1]
			i--
		}
		cands[i], covs[i] = c, rc
	}
	e.branchBufs[depth], e.covBufs[depth] = cands, covs
	for _, c := range cands {
		e.choose(c)
		e.search(depth + 1)
		e.unchoose()
		if e.aborted {
			break
		}
		// Exclude c from the remaining branches: every solution through c
		// was just enumerated.
		e.alive[c] = false
		e.killed = append(e.killed, c)
	}
	e.undoTo(cMark, kMark)
}

// reduceRoot runs forcing and subsumption to fixpoint before the search
// starts. Forced picks land on the chosen stack (they are in every
// feasible solution given prior kills); subsumed candidates are killed
// permanently (some optimal solution avoids them, by exchange).
func (e *engine) reduceRoot() {
	for changed := true; changed; {
		changed = false
		// Forcing: a target with a single live dominator decides it.
		for {
			_, cnt, forced := e.pickTarget()
			if e.remain == 0 || cnt != 1 {
				break
			}
			e.choose(forced)
			changed = true
		}
		if e.remain == 0 {
			return
		}
		// Subsumption: kill candidate c when another live candidate's
		// residual coverage contains c's (keep the lower index on exact
		// ties). Any superset of c's coverage must dominate c's first
		// residual target, so only that target's coverers are compared.
		for c := 0; c < e.nc; c++ {
			if !e.alive[c] {
				continue
			}
			mask := e.coverRow(int32(c))
			first := -1
			for w, word := range mask {
				if rw := word & e.u[w]; rw != 0 {
					first = w<<6 + bits.TrailingZeros64(rw)
					break
				}
			}
			if first < 0 { // covers nothing undominated anymore
				e.alive[c] = false
				changed = true
				continue
			}
			for _, d := range e.coverers[first] {
				if int(d) == c || !e.alive[d] {
					continue
				}
				dMask := e.coverRow(d)
				subset, equal := true, true
				for w, word := range mask {
					cw, dw := word&e.u[w], dMask[w]&e.u[w]
					if cw&^dw != 0 {
						subset = false
						break
					}
					if cw != dw {
						equal = false
					}
				}
				if subset && (!equal || int(d) < c) {
					e.alive[c] = false
					changed = true
					break
				}
			}
		}
	}
}

// seedGreedy installs the greedy cover of the residual state as the
// incumbent upper bound: repeatedly pick the live candidate covering the
// most undominated targets (lowest index on ties).
func (e *engine) seedGreedy() {
	copy(e.pack, e.u)
	remain := e.remain
	e.best = append(e.best[:0], e.chosen...)
	for remain > 0 {
		bestC, bestGain := int32(-1), 0
		for c := 0; c < e.nc; c++ {
			if !e.alive[c] {
				continue
			}
			mask := e.coverRow(int32(c))
			gain := 0
			for w, word := range mask {
				gain += bits.OnesCount64(word & e.pack[w])
			}
			if gain > bestGain {
				bestC, bestGain = int32(c), gain
			}
		}
		if bestC < 0 {
			break // unreachable: forcing keeps a live coverer per target
		}
		mask := e.coverRow(bestC)
		for w, word := range mask {
			remain -= bits.OnesCount64(word & e.pack[w])
			e.pack[w] &^= word
		}
		e.best = append(e.best, bestC)
	}
	e.bestLen = len(e.best)
}

// solution maps the incumbent back to sorted original vertex labels.
func (e *engine) solution() []int {
	out := make([]int, len(e.best))
	for i, c := range e.best {
		out[i] = int(e.candVert[c])
	}
	sort.Ints(out)
	return out
}

// solve runs the engine to optimality: root reductions, greedy seeding,
// then the search.
func (e *engine) solve(opt ExactOptions) ([]int, error) {
	e.maxNodes = opt.MaxNodes
	e.reduceRoot()
	if e.remain == 0 {
		e.best = append(e.best[:0], e.chosen...)
		e.bestLen = len(e.best)
		return e.solution(), nil
	}
	e.seedGreedy()
	e.search(0)
	if e.aborted {
		return nil, fmt.Errorf("mds: exact search exceeded the %d-node budget", opt.MaxNodes)
	}
	return e.solution(), nil
}
