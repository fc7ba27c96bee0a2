// The word-packed branch-and-bound engine for exact B-dominating sets.
//
// ExactBDominating routes its hard cases here (after the width-2 DP
// declines). The design follows the reduction-plus-bounded-search shape
// of the measure-and-conquer / PACE-solver literature:
//
//   - Closed-neighborhood coverage masks are packed into fixed-width word
//     arrays over a compact target index space ([1], [2] or [8]uint64 for
//     at most 64, 128 or 512 targets, chosen once per solve), so residual
//     coverage is a handful of AND+popcount instructions with no slice
//     header or width loop, and the undominated set is a bitset updated
//     incrementally with an undo trail.
//   - Each target's live-dominator count is kept as candidates are
//     excluded and revived, and each candidate's residual coverage as
//     targets are dominated and freed: picking the scarcest target reads
//     one counter per undominated target, and the cover bound is a
//     branch-free maximum over the candidates' counts masked by liveness.
//   - Reduction rules run to fixpoint at the root and as unit propagation
//     during search: a candidate u is dropped when its residual coverage
//     is contained in another candidate's (N[u]∩B ⊆ N[v]∩B subsumption,
//     which also swallows the classic leaf rule), and a candidate is
//     forced when it is some target's only remaining dominator.
//   - The lower bound is the max of the cover bound ⌈remaining/maxCover⌉
//     and a greedy disjoint-ball 2-packing: targets whose potential
//     dominator coverage is pairwise disjoint need pairwise distinct
//     dominators. This generalizes TwoPacking to B-domination and is what
//     closes the root gap on grids, the old solver's worst case. A node
//     only asks whether the bound reaches the incumbent's gap, so the
//     packing stops once it does.
//   - Branching picks the undominated target with the fewest live
//     dominators and tries them most-covering-first; each explored branch
//     then excludes its candidate from the remaining ones, so no solution
//     is enumerated twice.
//
// The search is allocation-free after construction: the pick and kill
// trails hold every candidate, and the branch stack and incumbent grow
// amortized. The search is fully deterministic (all ties break on the
// lowest index), so identical inputs give identical sets and node counts
// at every width.
package mds

import (
	"fmt"
	"math/bits"
	"sort"

	"localmds/internal/graph"
)

// engine is one exact B-domination instance in the compact target index
// space (target i = target[i]); candidates are the vertices with at least
// one target in their closed neighborhood, which loses no optimal
// solution. solve packs it into masks of the narrowest width that holds
// every target and runs the search.
type engine struct {
	nt int // number of targets
	nc int // number of candidates

	candVert []int32 // candidate index -> original vertex
	covOff   []int32 // candidate c covers targets covT[covOff[c]:covOff[c+1]]
	covT     []int32
	corOff   []int32 // target t is covered by candidates corC[corOff[t]:corOff[t+1]], ascending
	corC     []int32

	nodes int64 // search nodes visited by the last solve
}

// newEngine indexes the instance over a frozen CSR. target must be
// deduplicated, non-empty, and in range.
func newEngine(g *graph.CSR, target []int) *engine {
	n := g.N()
	nt := len(target)
	tIdx := make([]int32, n)
	for i := range tIdx {
		tIdx[i] = -1
	}
	for i, v := range target {
		tIdx[v] = int32(i)
	}

	// Candidates in vertex order, each with the targets in its closed
	// neighborhood.
	candVert := make([]int32, 0, n)
	covOff := make([]int32, 1, n+1)
	covT := make([]int32, 0, n+len(g.Targets))
	coverCount := make([]int32, nt)
	for v := 0; v < n; v++ {
		start := len(covT)
		if t := tIdx[v]; t >= 0 {
			covT = append(covT, t)
		}
		for _, u := range g.Row(v) {
			if t := tIdx[u]; t >= 0 {
				covT = append(covT, t)
			}
		}
		if len(covT) == start {
			continue
		}
		for _, t := range covT[start:] {
			coverCount[t]++
		}
		candVert = append(candVert, int32(v))
		covOff = append(covOff, int32(len(covT)))
	}

	// Coverer lists, ascending by candidate index.
	corOff := make([]int32, nt+1)
	for t := 0; t < nt; t++ {
		corOff[t+1] = corOff[t] + coverCount[t]
	}
	corC := make([]int32, corOff[nt])
	fill := append([]int32(nil), corOff[:nt]...)
	for c := range candVert {
		for _, t := range covT[covOff[c]:covOff[c+1]] {
			corC[fill[t]] = int32(c)
			fill[t]++
		}
	}
	return &engine{
		nt: nt, nc: len(candVert),
		candVert: candVert, covOff: covOff, covT: covT, corOff: corOff, corC: corC,
	}
}

// solve runs the engine to optimality at the narrowest mask width that
// holds every target.
func (e *engine) solve(opt ExactOptions) ([]int, error) {
	switch {
	case e.nt <= 64:
		return runSearch[[1]uint64](e, opt)
	case e.nt <= 128:
		return runSearch[[2]uint64](e, opt)
	case e.nt <= 512:
		return runSearch[[8]uint64](e, opt)
	}
	return nil, fmt.Errorf("mds: %d targets exceed the exact engine's 512-target masks", e.nt)
}

// mask is a fixed-width target bitset: bit i is target i.
type mask interface {
	[1]uint64 | [2]uint64 | [8]uint64
}

// andCount returns |a ∩ b|.
func andCount[M mask](a, b *M) int {
	s := 0
	for i := 0; i < len(*a); i++ {
		s += bits.OnesCount64((*a)[i] & (*b)[i])
	}
	return s
}

// bnb is the search state of one solve at mask width M.
type bnb[M mask] struct {
	*engine

	cover    []M // per candidate: N[candidate] ∩ B
	ballMask []M // per target: ∪ cover[c] over the target's coverers

	alive []int32 // per candidate: -1 while not subsumed or excluded, else 0 (masks rc)
	live  []int32 // per target: number of alive coverers
	rc    []int32 // per candidate: |cover ∩ u|, its residual coverage
	u     M       // undominated target bitset
	pack  M       // packing lower-bound and greedy scratch

	remain int // popcount(u)

	chosen []int32 // picked candidates (search stack, root-forced prefix included)
	deltas []M     // per-pick newly-dominated mask, aligned with chosen
	killed []int32 // exclusion/unit-kill trail, restored on frame exit

	best    []int32
	bestLen int

	maxNodes int64 // 0: unbounded
	aborted  bool

	branch []int32 // branch candidates of every open frame, outermost first
}

// runSearch packs e into width-M masks and solves it: root reductions,
// greedy seeding, then the search.
func runSearch[M mask](e *engine, opt ExactOptions) ([]int, error) {
	s := &bnb[M]{
		engine:   e,
		cover:    make([]M, e.nc),
		ballMask: make([]M, e.nt),
		alive:    make([]int32, e.nc),
		live:     make([]int32, e.nt),
		rc:       make([]int32, e.nc),
		chosen:   make([]int32, 0, e.nc),
		deltas:   make([]M, 0, e.nc),
		killed:   make([]int32, 0, e.nc),
		remain:   e.nt,
		maxNodes: opt.MaxNodes,
	}
	for c := range s.cover {
		s.alive[c] = -1
		ts := e.covers(int32(c))
		for _, t := range ts {
			s.cover[c][t>>6] |= 1 << (uint(t) & 63)
		}
		s.rc[c] = int32(len(ts))
	}
	for t := range s.ballMask {
		cs := e.coverers(t)
		s.live[t] = int32(len(cs))
		for _, c := range cs {
			for i := 0; i < len(s.u); i++ {
				s.ballMask[t][i] |= s.cover[c][i]
			}
		}
		s.u[t>>6] |= 1 << (uint(t) & 63)
	}
	e.nodes = 0
	s.reduceRoot()
	if s.remain == 0 {
		s.best = append(s.best[:0], s.chosen...)
		s.bestLen = len(s.best)
		return s.solution(), nil
	}
	s.seedGreedy()
	s.search()
	if s.aborted {
		return nil, fmt.Errorf("mds: exact search exceeded the %d-node budget", opt.MaxNodes)
	}
	return s.solution(), nil
}

// covers returns the targets candidate c covers.
func (e *engine) covers(c int32) []int32 { return e.covT[e.covOff[c]:e.covOff[c+1]] }

// coverers returns the candidates covering target t, ascending.
func (e *engine) coverers(t int) []int32 { return e.corC[e.corOff[t]:e.corOff[t+1]] }

// kill excludes candidate c, keeping the live-dominator counts.
func (s *bnb[M]) kill(c int32) {
	s.alive[c] = 0
	for _, t := range s.covers(c) {
		s.live[t]--
	}
}

// revive undoes kill.
func (s *bnb[M]) revive(c int32) {
	s.alive[c] = -1
	for _, t := range s.covers(c) {
		s.live[t]++
	}
}

// shiftCover adds delta to the residual coverage of every coverer of the
// targets in d: the bookkeeping when d leaves (-1) or rejoins (+1) the
// undominated set.
func (s *bnb[M]) shiftCover(d *M, delta int32) {
	for w := 0; w < len(*d); w++ {
		for word := (*d)[w]; word != 0; word &= word - 1 {
			for _, c := range s.coverers(w<<6 + bits.TrailingZeros64(word)) {
				s.rc[c] += delta
			}
		}
	}
}

// choose picks candidate c: records the newly-dominated delta on the undo
// trail and clears those targets from the undominated set.
func (s *bnb[M]) choose(c int32) {
	var d M
	for i := 0; i < len(d); i++ {
		d[i] = s.cover[c][i] & s.u[i]
		s.u[i] &^= d[i]
		s.remain -= bits.OnesCount64(d[i])
	}
	s.shiftCover(&d, -1)
	s.deltas = append(s.deltas, d)
	s.chosen = append(s.chosen, c)
}

// unchoose reverts the latest choose.
func (s *bnb[M]) unchoose() {
	last := len(s.chosen) - 1
	d := s.deltas[last]
	for i := 0; i < len(d); i++ {
		s.u[i] |= d[i]
		s.remain += bits.OnesCount64(d[i])
	}
	s.shiftCover(&d, +1)
	s.chosen = s.chosen[:last]
	s.deltas = s.deltas[:last]
}

// undoTo pops the chosen stack to cMark and revives exclusion kills down
// to kMark — the single frame-exit path of search.
func (s *bnb[M]) undoTo(cMark, kMark int) {
	for len(s.chosen) > cMark {
		s.unchoose()
	}
	for len(s.killed) > kMark {
		c := s.killed[len(s.killed)-1]
		s.killed = s.killed[:len(s.killed)-1]
		s.revive(c)
	}
}

// record stores the chosen stack as the new incumbent.
func (s *bnb[M]) record() {
	s.best = append(s.best[:0], s.chosen...)
	s.bestLen = len(s.chosen)
}

// pickTarget scans the undominated targets for the one with the fewest
// live dominators (ties to the lowest index). It returns the target, its
// live-dominator count, and — when that count is one — the forced
// candidate. The scan takes the minimum of count<<9 | target, a key that
// orders by count then index (targets fit in 9 bits), without a branch on
// the data.
func (s *bnb[M]) pickTarget() (pick int, minCnt int, forced int32) {
	best := (s.nc + 1) << 9
	for w := 0; w < len(s.u); w++ {
		for word := s.u[w]; word != 0; word &= word - 1 {
			t := w<<6 + bits.TrailingZeros64(word)
			best = min(best, int(s.live[t])<<9|t)
		}
	}
	pick, minCnt, forced = best&511, best>>9, -1
	if minCnt == 1 {
		for _, c := range s.coverers(pick) {
			if s.alive[c] != 0 {
				forced = c
				break
			}
		}
	}
	return
}

// boundReaches reports whether the lower bound on the picks still needed
// reaches need (at least one): the max of the cover bound
// ⌈remain/maxCover⌉ and the disjoint-ball 2-packing, where maxCover ranges
// over live candidates only. No live candidate covering anything signals
// infeasibility (every remaining dominator excluded on this branch) and
// reaches any need. The packing is greedy and its count only grows, so it
// stops as soon as the count reaches need: the answer is the one the
// complete bound gives.
func (s *bnb[M]) boundReaches(need int) bool {
	var maxCover int32
	for c, rc := range s.rc {
		maxCover = max(maxCover, rc&s.alive[c])
	}
	if maxCover == 0 || (s.remain+int(maxCover)-1)/int(maxCover) >= need {
		return true
	}
	// Greedy 2-packing on the ball masks: repeatedly admit the target
	// whose dominator ball erases the fewest other candidates for the
	// packing. Each admitted target needs its own dominator, so the count
	// lower-bounds the remaining picks. Ball masks are static (they
	// include excluded candidates' coverage), which only weakens — never
	// breaks — the bound. The scan keys targets like pickTarget, by loss
	// then index.
	s.pack = s.u
	none := (s.nt + 1) << 9
	for packed := 0; ; {
		best := none
		for w := 0; w < len(s.pack); w++ {
			for word := s.pack[w]; word != 0; word &= word - 1 {
				t := w<<6 + bits.TrailingZeros64(word)
				best = min(best, andCount(&s.ballMask[t], &s.pack)<<9|t)
			}
		}
		if best == none {
			return false
		}
		bestT := best & 511
		if packed++; packed >= need {
			return true
		}
		for i := 0; i < len(s.pack); i++ {
			s.pack[i] &^= s.ballMask[bestT][i]
		}
	}
}

// search explores extensions of the current chosen stack. Unit
// propagation (forcing) runs first; then bounds; then exclusion branching
// on the scarcest target's dominators.
func (s *bnb[M]) search() {
	if s.aborted {
		return
	}
	s.nodes++
	if s.maxNodes > 0 && s.nodes > s.maxNodes {
		s.aborted = true
		return
	}
	cMark, kMark := len(s.chosen), len(s.killed)
	var pick int
	for {
		if len(s.chosen) >= s.bestLen {
			s.undoTo(cMark, kMark)
			return
		}
		if s.remain == 0 {
			s.record()
			s.undoTo(cMark, kMark)
			return
		}
		t, cnt, forced := s.pickTarget()
		if cnt == 0 { // all dominators of t excluded on this branch
			s.undoTo(cMark, kMark)
			return
		}
		if cnt == 1 {
			s.choose(forced)
			continue
		}
		pick = t
		break
	}
	if s.boundReaches(s.bestLen - len(s.chosen)) {
		s.undoTo(cMark, kMark)
		return
	}
	// Branch candidates: live dominators of pick, most residual coverage
	// first, index ascending on ties, insertion-sorted into this frame's
	// slice of the branch stack (deeper frames push above it and pop
	// before returning).
	start := len(s.branch)
	for _, c := range s.coverers(pick) {
		if s.alive[c] == 0 {
			continue
		}
		i := len(s.branch)
		s.branch = append(s.branch, c)
		for i > start && s.rc[s.branch[i-1]] < s.rc[c] {
			s.branch[i] = s.branch[i-1]
			i--
		}
		s.branch[i] = c
	}
	end := len(s.branch)
	for k := start; k < end; k++ {
		c := s.branch[k]
		s.choose(c)
		s.search()
		s.unchoose()
		if s.aborted {
			break
		}
		// Exclude c from the remaining branches: every solution through c
		// was just enumerated.
		s.kill(c)
		s.killed = append(s.killed, c)
	}
	s.branch = s.branch[:start]
	s.undoTo(cMark, kMark)
}

// reduceRoot runs forcing and subsumption to fixpoint before the search
// starts. Forced picks land on the chosen stack (they are in every
// feasible solution given prior kills); subsumed candidates are killed
// permanently (some optimal solution avoids them, by exchange).
func (s *bnb[M]) reduceRoot() {
	for changed := true; changed; {
		changed = false
		// Forcing: a target with a single live dominator decides it.
		for {
			_, cnt, forced := s.pickTarget()
			if s.remain == 0 || cnt != 1 {
				break
			}
			s.choose(forced)
			changed = true
		}
		if s.remain == 0 {
			return
		}
		// Subsumption: kill candidate c when another live candidate's
		// residual coverage contains c's (keep the lower index on exact
		// ties). Any superset of c's coverage must dominate c's first
		// residual target, so only that target's coverers are compared.
		for c := range s.cover {
			if s.alive[c] == 0 {
				continue
			}
			mask := s.cover[c]
			first := -1
			for w := 0; w < len(mask); w++ {
				if rw := mask[w] & s.u[w]; rw != 0 {
					first = w<<6 + bits.TrailingZeros64(rw)
					break
				}
			}
			if first < 0 { // covers nothing undominated anymore
				s.kill(int32(c))
				changed = true
				continue
			}
			for _, d := range s.coverers(first) {
				if int(d) == c || s.alive[d] == 0 {
					continue
				}
				dMask := s.cover[d]
				subset, equal := true, true
				for w := 0; w < len(mask); w++ {
					cw, dw := mask[w]&s.u[w], dMask[w]&s.u[w]
					if cw&^dw != 0 {
						subset = false
						break
					}
					if cw != dw {
						equal = false
					}
				}
				if subset && (!equal || int(d) < c) {
					s.kill(int32(c))
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
func (s *bnb[M]) seedGreedy() {
	s.pack = s.u
	remain := s.remain
	s.best = append(s.best[:0], s.chosen...)
	for remain > 0 {
		bestC, bestGain := -1, 0
		for c := range s.cover {
			if s.alive[c] == 0 {
				continue
			}
			if gain := andCount(&s.cover[c], &s.pack); gain > bestGain {
				bestC, bestGain = c, gain
			}
		}
		if bestC < 0 {
			break // unreachable: forcing keeps a live coverer per target
		}
		remain -= bestGain
		for w := 0; w < len(s.pack); w++ {
			s.pack[w] &^= s.cover[bestC][w]
		}
		s.best = append(s.best, int32(bestC))
	}
	s.bestLen = len(s.best)
}

// solution maps the incumbent back to sorted original vertex labels.
func (s *bnb[M]) solution() []int {
	out := make([]int, len(s.best))
	for i, c := range s.best {
		out[i] = int(s.candVert[c])
	}
	sort.Ints(out)
	return out
}
