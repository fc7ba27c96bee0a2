// CSR-native cut enumeration: the Algorithm 1 step-2/step-3 detectors
// (r-local minimal 1-cuts, and r-interesting vertices or, for the
// vertex-cover variant, all local 2-cut vertices) over a frozen
// graph.CSR. No ball is ever copied out: a ball is a generation stamp over
// the host CSR's own vertex ids (graph.CSR.MarkBall), and the cut tests
// are searches restricted to it: one articulation-point DFS per ball
// (graph.CSR.AppendSeparators) and one component labeling per tested cut
// (graph.CSR.LabelComponents), from which every test reads its answer.
// The kernel makes two passes over the vertices, each split across a
// fixed set of workers: the first finds the 1-cuts and builds a separator
// table, the second tests only the pairs the table admits from both ends.
// Each detector returns exactly the set its *graph.Graph counterpart
// returns (for C2: the endpoints of IsLocalTwoCut's pairs), at every
// worker count; csr_test.go checks that on the Table 1 families.
package cuts

import (
	"math"
	"slices"

	"localmds/internal/graph"
)

// LocalOneCutsCSR returns all vertices v such that {v} is an r-local
// minimal 1-cut of c (Definition 2.1 with k = 1), ascending.
func LocalOneCutsCSR(c *graph.CSR, r int, a *graph.Arena) []int {
	var out []int
	for v := range c.N() {
		if isOneCut(c, v, r, a) {
			out = append(out, v)
		}
	}
	return out
}

// isOneCut is the 1-cut test. A ball subgraph is always connected, and
// every component of c[N^r[v]] - v contains a neighbor of v (the last step
// of a shortest path to v), so v is a local 1-cut iff N^r[v] - v has at
// least two components.
func isOneCut(c *graph.CSR, v, r int, a *graph.Arena) bool {
	if c.Degree(v) < 2 {
		return false
	}
	c.MarkBall(v, -1, r, a)
	return c.LabelComponents(v, -1, a) >= 2
}

// LocallyInterestingVerticesCSR returns the set I of Algorithm 1 step 3 —
// all vertices that are r-interesting through some r-local minimal 2-cut
// (§3.2) — ascending. It is the i of LocalCutsWorkers at r1 = r2 = r with
// one worker.
func LocallyInterestingVerticesCSR(c *graph.CSR, r int, a *graph.Arena) []int {
	_, i := LocalCutsWorkers(c, r, r, 1, a)
	return i
}

// LocalCutsWorkers returns Algorithm 1's X — the r1-local minimal 1-cuts
// — and I — the r2-interesting vertices — both ascending, with each vertex
// loop split across min(workers, n) goroutines; a serves the first of
// them. The result is the same at every worker count. The passes are
// localCuts'; a tested pair records the direction self when self is not
// yet known to be interesting, N[self] ⊈ N[other], and at least two
// components of the pair ball are not covered by other.
func LocalCutsWorkers(c *graph.CSR, r1, r2, workers int, a *graph.Arena) (x, i []int) {
	return localCuts(c, r1, r2, workers, a, interestingRule{})
}

// LocalCutsC2Workers returns the vertex-cover variant's cut sets: X — the
// r1-local minimal 1-cuts — and C2 — every endpoint of an r2-local minimal
// 2-cut, with no interestingness test — both ascending, on the same
// passes and worker split as LocalCutsWorkers.
func LocalCutsC2Workers(c *graph.CSR, r1, r2, workers int, a *graph.Arena) (x, c2 []int) {
	return localCuts(c, r1, r2, workers, a, twoCutRule{})
}

// pairRule is the per-problem part of localCuts' pass 2. need reports
// which ends of the pair {u, v} still have to be decided, given the
// worker's bitmap; the pair is tested only if one does. record flags
// vertices for a pair that is a minimal 2-cut of its ball, given the
// number of ball components each end leaves uncovered.
type pairRule interface {
	need(c *graph.CSR, u, v int, flagged []bool) (needU, needV bool)
	record(flagged []bool, u, v int, needU, needV bool, uncoveredU, uncoveredV int)
}

// interestingRule decides r-interestingness (§3.2), Algorithm 1's step 3.
type interestingRule struct{}

func (interestingRule) need(c *graph.CSR, u, v int, interesting []bool) (bool, bool) {
	return !interesting[u] && !c.ClosedSubset(u, v), !interesting[v] && !c.ClosedSubset(v, u)
}

func (interestingRule) record(interesting []bool, u, v int, needU, needV bool, uncoveredU, uncoveredV int) {
	if needU && uncoveredV >= 2 {
		interesting[u] = true
	}
	if needV && uncoveredU >= 2 {
		interesting[v] = true
	}
}

// twoCutRule takes both ends of every local minimal 2-cut, the
// vertex-cover variant's step 3.
type twoCutRule struct{}

func (twoCutRule) need(_ *graph.CSR, u, v int, c2 []bool) (bool, bool) {
	return !c2[u], !c2[v]
}

func (twoCutRule) record(c2 []bool, u, v int, _, _ bool, _, _ int) {
	c2[u], c2[v] = true, true
}

// localCuts is the kernel behind both entry points. It returns X and the
// vertices rule flags in pass 2, both ascending.
//
// Pass 1 visits every vertex u once. On the ball N^r2[u] it records in a
// separator table the set S(u) of ball vertices v for which u's neighbors
// lie in two components of N^r2[u] - {u, v} (graph.CSR.AppendSeparators)
// — or "all" when they already do in N^r2[u] - u, which is the 1-cut test
// on that ball. That answers the 1-cut test at r1 whenever N^r1[u] is the
// same ball: when r1 = r2, or when both balls cover u's component, as at
// the paper's radii. Otherwise the test labels N^r1[u] - u.
//
// Pass 2 tests each unordered pair {u, v} at distance at most r2 once,
// from its smaller end, and only when v ∈ S(u) (or u is "all") and
// u ∈ S(v) (or v is "all"). A pair {u, v} is a minimal 2-cut of its ball
// only if u and v each have neighbors in two components of
// ball - {u, v}; all of u's neighbors lie in N^r2[u], a subset of the pair
// ball, so v ∉ S(u) rules the pair out, and likewise u ∉ S(v). The ball
// and the test are symmetric, and one test decides both directions:
//
//  1. The pair is tested only if rule.need asks for one of its ends. Each
//     worker reads only its own bitmap, so the skips save work and never
//     change the union.
//  2. The pair ball's components are labeled once (LabelComponents), and
//     one scan of each end's row counts the components it touches and
//     those it does not cover (ComponentsSeenBy). Every component holds a
//     neighbor of u or v, so the labeling sees them all.
//  3. The pair is a minimal 2-cut iff both ends touch two components;
//     rule.record then flags what it decides.
func localCuts(c *graph.CSR, r1, r2, workers int, a *graph.Arena, rule pairRule) (x, flagged []int) {
	n := c.N()
	arenas := workerArenas{a}
	t := sepTable{off: make([]int32, n+1)}
	var parts []*sepRows
	x = forEachVertex(n, workers, &arenas, func(a *graph.Arena, cut []bool) func(int) {
		w := &sepRows{}
		parts = append(parts, w)
		return func(u int) {
			w.claim(u)
			if c.Degree(u) < 2 {
				return // u cannot have neighbors in two components
			}
			ball := len(c.MarkBall(u, -1, r2, a))
			start := len(w.ent)
			var ok bool
			w.ent, ok = c.AppendSeparators(w.ent, u, a)
			if !ok {
				w.ent = append(w.ent, allPartners)
			}
			t.off[u+1] = int32(len(w.ent) - start)
			if r1 == r2 || len(c.MarkBall(u, -1, r1, a)) == ball {
				cut[u] = !ok // N^r1[u] is the separator ball
			} else {
				cut[u] = c.LabelComponents(u, -1, a) >= 2 // as isOneCut
			}
		}
	})
	t.merge(parts)

	flagged = forEachVertex(n, workers, &arenas, func(a *graph.Arena, flags []bool) func(int) {
		var ball []int32
		return func(u int) {
			if c.Degree(u) < 2 {
				return
			}
			partners, all := t.row(u)
			if all {
				ball = append(ball[:0], c.MarkBall(u, -1, r2, a)...)
				partners = ball
			}
			for _, v32 := range partners {
				v := int(v32)
				if v <= u || c.Degree(v) < 2 || !t.admits(v, u) {
					continue
				}
				needU, needV := rule.need(c, u, v, flags)
				if !needU && !needV {
					continue
				}
				c.MarkBall(u, v, r2, a)
				c.LabelComponents(u, v, a)
				touchedU, uncoveredU := c.ComponentsSeenBy(u, a)
				touchedV, uncoveredV := c.ComponentsSeenBy(v, a)
				if touchedU < 2 || touchedV < 2 {
					continue
				}
				rule.record(flags, u, v, needU, needV, uncoveredU, uncoveredV)
			}
		}
	})
	return x, flagged
}

// allPartners is the single entry of a separator-table row whose vertex
// admits every ball vertex as a partner.
const allPartners = -1

// sepTable is pass 1's output, one row per vertex in a flat array: row u
// is ent[off[u]:off[u+1]], S(u) ascending or [allPartners]. A row depends
// only on its vertex's ball, so the table is the same at every worker
// count. A table too large for int32 offsets is dropped (off == nil):
// every row then reads as allPartners, which only costs the filtering.
type sepTable struct {
	off []int32
	ent []int32
}

// sepRows is one worker's share of pass 1: the rows of the vertices it
// visited, in visiting order, and those vertices as ascending [lo, hi)
// runs (the shared cursor hands each worker increasing ranges).
type sepRows struct {
	ent  []int32
	runs [][2]int32
}

// claim records that the worker visits u next.
func (w *sepRows) claim(u int) {
	if k := len(w.runs) - 1; k >= 0 && w.runs[k][1] == int32(u) {
		w.runs[k][1]++
		return
	}
	w.runs = append(w.runs, [2]int32{int32(u), int32(u) + 1})
}

// merge lays the workers' rows out in vertex order; on entry off[u+1]
// holds row u's length. A run's rows are contiguous in its worker's
// buffer and in the table, so each run is one copy; a lone worker's
// buffer already is the table.
func (t *sepTable) merge(parts []*sepRows) {
	total := int64(0)
	for u := 1; u < len(t.off); u++ {
		total += int64(t.off[u])
		if total > math.MaxInt32 {
			t.off = nil
			return
		}
		t.off[u] = int32(total)
	}
	if len(parts) == 1 {
		t.ent = parts[0].ent
		return
	}
	t.ent = make([]int32, total)
	for _, w := range parts {
		pos := 0
		for _, r := range w.runs {
			pos += copy(t.ent[t.off[r[0]]:t.off[r[1]]], w.ent[pos:])
		}
	}
}

// row returns S(u), or all = true when u admits every ball vertex.
func (t *sepTable) row(u int) (s []int32, all bool) {
	if t.off == nil {
		return nil, true
	}
	s = t.ent[t.off[u]:t.off[u+1]]
	return s, len(s) == 1 && s[0] == allPartners
}

// admits reports whether v is a candidate partner in u's row.
func (t *sepTable) admits(u, v int) bool {
	s, all := t.row(u)
	if all {
		return true
	}
	_, ok := slices.BinarySearch(s, int32(v))
	return ok
}

// workerArenas hands worker k of a pass its arena: the caller's for the
// first, fresh ones after it, kept so the next pass reuses them.
type workerArenas []*graph.Arena

func (as *workerArenas) get(k int) *graph.Arena {
	if k == len(*as) {
		*as = append(*as, graph.NewArena())
	}
	return (*as)[k]
}

// rangeSize is how many consecutive vertices a worker claims at a time:
// large enough that the shared cursor is touched rarely, small enough that
// the last ranges balance uneven per-vertex cost.
const rangeSize = 32

// forEachVertex runs a visit function for every vertex 0..n-1 and returns,
// ascending, the vertices any visit flagged. The loop splits across
// min(workers, n) workers (graph.ParallelFor, claiming rangeSize vertices
// at a time); newVisit builds each worker's visit function over that
// worker's own arena (arenas.get) and its own flag bitmap; the bitmaps are
// OR-merged in vertex order.
func forEachVertex(n, workers int, arenas *workerArenas, newVisit func(a *graph.Arena, flagged []bool) func(v int)) []int {
	var flags [][]bool
	graph.ParallelFor(n, workers, rangeSize, func(k int) func(int) {
		flags = append(flags, make([]bool, n))
		return newVisit(arenas.get(k), flags[k])
	})
	hit := flags[0]
	for _, f := range flags[1:] {
		for v, ok := range f {
			if ok {
				hit[v] = true
			}
		}
	}
	var out []int
	for v, ok := range hit {
		if ok {
			out = append(out, v)
		}
	}
	return out
}
