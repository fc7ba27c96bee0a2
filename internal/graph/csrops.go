package graph

import (
	"math"
	"slices"
)

// CSR-native traversal operations. Everything in this file runs over the
// frozen flat arrays of a CSR and keeps its scratch state in an Arena, so
// hot consumers (the Algorithm 1 pipeline, the cut enumerators, the
// per-component solvers) never fall back to the allocating Graph accessors
// (Neighbors, Ball, Induced, Edges) inside their inner loops.

// Arena is reusable scratch for CSR traversals: a stamped mark array with a
// BFS queue (balls and visited sets), a stamped position map for
// induced-subgraph relabeling, and a second stamped visited array with
// component labels (or DFS discovery indices, beside a frame stack) for
// searches inside a marked ball. Arenas grow on demand and are sized to
// the largest CSR they have served, so a long-lived Arena makes repeated
// traversals allocation-free.
//
// An Arena is not safe for concurrent use; give each goroutine its own.
// Each operation taking an Arena invalidates the arena-owned outputs of the
// previous operation (appended dst slices are caller-owned and stay valid).
type Arena struct {
	mark  []int32 // marked iff mark[v] == stamp
	stamp int32
	queue []int32

	pos     []int32 // induced relabel map, valid where posMark[v] == posGen
	posMark []int32
	posGen  int32

	seen     []int32 // in-ball search visited iff seen[v] == seenGen
	seenGen  int32
	labels   []int32 // component labels or DFS indices, valid where seen[v] == seenGen
	compSize []int32 // vertex count per label of the last labeling
	compHits []int32 // hitsOf scratch, one slot per label

	sepStack   []sepFrame   // AppendSeparators DFS frames, one per tree vertex on the path
	open       []int32      // MarkBlockBall's open articulation points
	blockStack []blockFrame // Blocks DFS frames

	dmax  []int32 // Diameter: per vertex, the largest distance to a sweep source
	order []int32 // Diameter: the central vertex's BFS order
}

// NewArena returns an empty Arena; it grows to fit the graphs it serves.
func NewArena() *Arena { return &Arena{} }

// nextGen starts a fresh generation of a stamp array. At math.MaxInt32 it
// clears the array and restarts at 1, so a stamp written about 2^31
// generations ago can never read as current.
func nextGen(marks []int32, gen *int32) int32 {
	if *gen == math.MaxInt32 {
		clear(marks)
		*gen = 0
	}
	*gen++
	return *gen
}

// growMark ensures the mark array covers n vertices.
func (a *Arena) growMark(n int) {
	if len(a.mark) < n {
		a.mark = make([]int32, n)
		a.stamp = 0
	}
}

// growPos ensures the position-map arrays cover n vertices.
func (a *Arena) growPos(n int) {
	if len(a.pos) < n {
		a.pos = make([]int32, n)
		a.posMark = make([]int32, n)
		a.posGen = 0
	}
}

// growSeen ensures the in-ball visited and label arrays cover n vertices.
func (a *Arena) growSeen(n int) {
	if len(a.seen) < n {
		a.seen = make([]int32, n)
		a.labels = make([]int32, n)
		a.seenGen = 0
	}
}

// boundedBFS runs a multi-source BFS truncated at radius r (r < 0 means
// unbounded), marks the reached vertices under a fresh stamp, and returns
// them in BFS order as a view into the arena queue, together with the
// distance of the farthest one.
func (c *CSR) boundedBFS(sources []int32, r int, a *Arena) ([]int32, int) {
	a.growMark(c.N())
	stamp := nextGen(a.mark, &a.stamp)
	q := a.queue[:0]
	for _, s := range sources {
		if a.mark[s] != stamp {
			a.mark[s] = stamp
			q = append(q, s)
		}
	}
	offs, tgts := c.Offsets, c.Targets
	far := 0
	for head := 0; head < len(q) && far != r; {
		end := len(q)
		for ; head < end; head++ {
			v := q[head]
			for k := offs[v]; k < offs[v+1]; k++ {
				u := tgts[k]
				if a.mark[u] != stamp {
					a.mark[u] = stamp
					q = append(q, u)
				}
			}
		}
		if len(q) > end {
			far++
		}
	}
	a.queue = q[:0]
	return q, far
}

// MarkBall marks N^r[{u, v}] as the arena's current ball (v < 0 marks
// N^r[u]; r < 0 means unbounded) and returns its members in BFS order, as
// a view into the arena that the next operation overwrites. The marks
// themselves stay current for AppendSeparators and LabelComponents until
// the next operation that marks a ball or visits vertices (MarkBall,
// SubsetComponents). Nothing is copied: the ball is a stamp
// over c's own vertex ids.
func (c *CSR) MarkBall(u, v, r int, a *Arena) []int32 {
	src := [2]int32{int32(u), int32(v)}
	sources := src[:2]
	if v < 0 {
		sources = src[:1]
	}
	ball, _ := c.boundedBFS(sources, r, a)
	return ball
}

// sepFrame is one vertex on AppendSeparators' DFS path.
type sepFrame struct {
	v     int32 // the vertex
	next  int32 // index into Targets of its next unscanned edge
	low   int32 // smallest discovery index reached from its subtree
	nbrs  int32 // neighbors of the center in its subtree
	own   int32 // 1 if the vertex itself neighbors the center
	parts int32 // child subtrees cut off by removing it that hold a center neighbor
	cut   int32 // center neighbors in those cut-off subtrees
}

// AppendSeparators appends to dst, ascending, every vertex v of the current
// ball H = ball - w whose removal splits w's neighbors: those neighbors lie
// in at least two components of H - v. It is the set of v for which
// LabelComponents(w, v) gives w's neighbors two labels over the same ball,
// from one articulation-point DFS (Hopcroft–Tarjan) instead of one
// labeling per v. The DFS counts w's neighbors per subtree;
// removing v leaves as parts its children c with low[c] >= disc[v] plus
// the rest of H, and v is appended when two parts hold a neighbor.
//
// It reports false, with dst unchanged, when w's neighbors already lie in
// two components of H — exactly when LabelComponents(w, -1) >= 2 — and
// then computes no separators. With fewer than two neighbors in the ball
// nothing can split them: it reports true and appends nothing.
// The DFS marks visits in the arena's seen/labels arrays (labels hold
// discovery indices) and keeps its path in a ball-deep frame stack.
func (c *CSR) AppendSeparators(dst []int32, w int, a *Arena) ([]int32, bool) {
	const neighbor = -2 // label of a neighbor of w not yet visited
	in := a.stamp
	a.growSeen(c.N())
	gen := nextGen(a.seen, &a.seenGen)
	a.seen[w], a.labels[w] = gen, -1
	root, total := int32(-1), int32(0)
	for _, y := range c.Row(w) {
		if a.mark[y] == in {
			a.seen[y], a.labels[y] = gen, neighbor
			total++
			if root < 0 {
				root = y
			}
		}
	}
	if total < 2 {
		return dst, true // one neighbor is never split
	}
	start := len(dst)
	offs, tgts := c.Offsets, c.Targets
	disc := int32(0)
	a.labels[root] = disc
	stack := append(a.sepStack[:0], sepFrame{v: root, next: offs[root], nbrs: 1, own: 1})
	for {
		f := &stack[len(stack)-1]
		if f.next < offs[f.v+1] {
			y := tgts[f.next]
			f.next++
			if a.mark[y] != in {
				continue
			}
			own := int32(0)
			if a.seen[y] == gen {
				switch l := a.labels[y]; {
				case l >= 0:
					f.low = min(f.low, l) // visited: an ancestor or descendant
					continue
				case l != neighbor:
					continue // w
				}
				own = 1
			}
			disc++
			a.seen[y], a.labels[y] = gen, disc
			stack = append(stack, sepFrame{v: y, next: offs[y], low: disc, nbrs: own, own: own})
			continue
		}
		// f.v is finished: the rest of H outside its cut-off subtrees is
		// one more part when it holds a neighbor. At the root the rest is
		// empty, since every child subtree is cut off.
		parts := f.parts
		if total-f.cut-f.own > 0 {
			parts++
		}
		if parts >= 2 {
			dst = append(dst, f.v)
		}
		done := *f
		stack = stack[:len(stack)-1]
		if len(stack) == 0 {
			a.sepStack = stack
			if done.nbrs < total {
				return dst[:start], false // some neighbor lies outside root's component
			}
			slices.Sort(dst[start:])
			return dst, true
		}
		p := &stack[len(stack)-1]
		p.low = min(p.low, done.low)
		p.nbrs += done.nbrs
		if done.low >= a.labels[p.v] {
			p.cut += done.nbrs
			if done.nbrs > 0 {
				p.parts++
			}
		}
	}
}

// LabelComponents labels the components of ball - {u, v} that contain a
// neighbor of u or v, in order of discovery, and returns how many there
// are (v < 0 removes only u, as in MarkBall). When the current ball is
// N^r[{u, v}] with r >= 1 that is every component: each ball vertex
// reaches u or v along a shortest path inside the ball, and the last step
// before u or v is a neighbor. The labeling is read by ComponentsSeenBy.
func (c *CSR) LabelComponents(u, v int, a *Arena) int {
	in := a.stamp
	a.growSeen(c.N())
	gen := nextGen(a.seen, &a.seenGen)
	cut := [2]int{u, v}
	ends := cut[:2]
	if v < 0 {
		ends = cut[:1]
	}
	for _, w := range ends {
		a.seen[w], a.labels[w] = gen, -1
	}
	sizes, q := a.compSize[:0], a.queue[:0]
	offs, tgts := c.Offsets, c.Targets
	for _, w := range ends {
		for _, s := range c.Row(w) {
			if a.mark[s] != in || a.seen[s] == gen {
				continue
			}
			label := int32(len(sizes))
			a.seen[s], a.labels[s] = gen, label
			q = append(q[:0], s)
			for head := 0; head < len(q); head++ {
				x := q[head]
				for k := offs[x]; k < offs[x+1]; k++ {
					y := tgts[k]
					if a.mark[y] == in && a.seen[y] != gen {
						a.seen[y], a.labels[y] = gen, label
						q = append(q, y)
					}
				}
			}
			sizes = append(sizes, int32(len(q)))
		}
	}
	a.compSize, a.queue = sizes, q[:0]
	return len(sizes)
}

// ComponentsSeenBy reads the last LabelComponents call from x's row: how
// many of its components hold a neighbor of x (touched), and how many hold
// a vertex not adjacent to x (uncovered: x's neighbors in the component
// are not all of it).
func (c *CSR) ComponentsSeenBy(x int, a *Arena) (touched, uncovered int) {
	for l, h := range a.hitsOf(c, x) {
		if h > 0 {
			touched++
		}
		if h < a.compSize[l] {
			uncovered++
		}
	}
	return touched, uncovered
}

// EachComponentSeenBy reads the last LabelComponents call from x's row
// and calls f once for every component that holds a neighbor of x, with
// the first such neighbor y in the row and whether the component holds a
// vertex not adjacent to x.
func (c *CSR) EachComponentSeenBy(x int, a *Arena, f func(y int32, uncovered bool)) {
	hits := a.hitsOf(c, x)
	for _, y := range c.Row(x) {
		if a.seen[y] != a.seenGen || a.labels[y] < 0 {
			continue
		}
		if l := a.labels[y]; hits[l] > 0 {
			f(y, hits[l] < a.compSize[l])
			hits[l] = 0
		}
	}
}

// hitsOf counts x's neighbors in each component of the last labeling, in
// arena scratch indexed by label.
func (a *Arena) hitsOf(c *CSR, x int) []int32 {
	num := len(a.compSize)
	if cap(a.compHits) < num {
		a.compHits = make([]int32, num)
	}
	hits := a.compHits[:num]
	clear(hits)
	for _, y := range c.Row(x) {
		if a.seen[y] == a.seenGen && a.labels[y] >= 0 {
			hits[a.labels[y]]++
		}
	}
	return hits
}

// ClosedSubset reports whether N[v] ⊆ N[u] (closed neighborhoods in c),
// without materializing either set.
func (c *CSR) ClosedSubset(v, u int) bool {
	rv, ru := c.Row(v), c.Row(u)
	i, j := 0, 0
	iv, iu := int32(v), int32(u)
	next := func(row []int32, k *int, self int32, emitted *bool) (int32, bool) {
		// Merge self into the sorted row on the fly.
		if !*emitted && (*k >= len(row) || self < row[*k]) {
			*emitted = true
			return self, true
		}
		if *k < len(row) {
			x := row[*k]
			*k++
			return x, true
		}
		return 0, false
	}
	var doneV, doneU bool
	xv, okv := next(rv, &i, iv, &doneV)
	xu, oku := next(ru, &j, iu, &doneU)
	for okv {
		if !oku {
			return false
		}
		switch {
		case xv == xu:
			xv, okv = next(rv, &i, iv, &doneV)
			xu, oku = next(ru, &j, iu, &doneU)
		case xv > xu:
			xu, oku = next(ru, &j, iu, &doneU)
		default:
			return false
		}
	}
	return true
}

// InducedInto builds the induced subgraph c[verts] into out, reusing out's
// backing arrays. verts must be sorted ascending and duplicate-free; vertex
// i of the result is verts[i] (the relabeling is monotone, so rows stay
// sorted). The position map lives in the arena and is consumed by the call.
func (c *CSR) InducedInto(out *CSR, verts []int32, a *Arena) {
	a.growPos(c.N())
	gen := nextGen(a.posMark, &a.posGen)
	for i, v := range verts {
		a.pos[v] = int32(i)
		a.posMark[v] = gen
	}
	if cap(out.Offsets) < len(verts)+1 {
		out.Offsets = make([]int32, 0, len(verts)+1)
	}
	out.Offsets = append(out.Offsets[:0], 0)
	out.Targets = out.Targets[:0]
	for _, v := range verts {
		for _, u := range c.Row(int(v)) {
			if a.posMark[u] == gen {
				out.Targets = append(out.Targets, a.pos[u])
			}
		}
		out.Offsets = append(out.Offsets, int32(len(out.Targets)))
	}
}

// SubsetComponents returns the connected components of c[members] in terms
// of c's labels: each component sorted ascending, components ordered by
// smallest member. members must be sorted ascending and duplicate-free.
// The component slices are freshly allocated (they outlive the arena); the
// traversal itself is arena-scratch only.
func (c *CSR) SubsetComponents(members []int32, a *Arena) [][]int32 {
	a.growPos(c.N())
	gen := nextGen(a.posMark, &a.posGen)
	for _, v := range members {
		a.posMark[v] = gen
	}
	a.growMark(c.N())
	stamp := nextGen(a.mark, &a.stamp)
	var comps [][]int32
	offs, tgts := c.Offsets, c.Targets
	for _, v := range members {
		if a.mark[v] == stamp {
			continue
		}
		a.mark[v] = stamp
		comp := []int32{v}
		for head := 0; head < len(comp); head++ {
			x := comp[head]
			for k := offs[x]; k < offs[x+1]; k++ {
				y := tgts[k]
				if a.posMark[y] == gen && a.mark[y] != stamp {
					a.mark[y] = stamp
					comp = append(comp, y)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Diameter bounds the largest distance between two vertices of the same
// connected component (0 when no component has an edge) by lo <= diam <=
// hi, and counts the components, allocation-free given a warm arena. Each
// component is settled from exact eccentricity bounds rather than one BFS
// per vertex (iFUB: Crescenzi, Grossi, Habib, Lanzi & Marino, "On
// computing the diameter of real-world undirected graphs", TCS 2013). A
// 4-sweep finds a lower bound and a central vertex u, and BFS then runs
// only from u's farthest levels until no pair closer to u can beat the
// bound. Grids and near-planar graphs settle after a handful of BFS runs;
// where the bounds meet late the cost approaches one BFS per vertex, the
// all-pairs cost and the worst case (a cycle stops after about half its
// vertices).
//
// maxWork <= 0 runs every component to the end, so lo == hi. maxWork > 0
// caps the BFS runs past the sweeps, each charged its component's vertex
// count plus adjacency slots: a run that would take the total past maxWork
// is skipped, and its component keeps the bounds it has. The sweeps are
// at most five BFS per component, so a cap linear in n + m keeps the call
// linear.
func (c *CSR) Diameter(a *Arena, maxWork int) (lo, hi, comps int) {
	n := c.N()
	a.growPos(n)
	if len(a.dmax) < n {
		a.dmax = make([]int32, n)
	}
	var left *int
	if maxWork > 0 {
		left = &maxWork
	}
	done := nextGen(a.posMark, &a.posGen)
	for v := 0; v < n; v++ {
		if a.posMark[v] != done {
			l, h := c.componentDiameter(int32(v), done, left, a)
			lo, hi, comps = max(lo, l), max(hi, h), comps+1
		}
	}
	return lo, hi, comps
}

// componentDiameter returns bounds lb <= diam <= ub on the diameter of v's
// component, stamping its vertices with done in the arena's position
// marks. left, when not nil, is the work the iFUB runs may still spend.
func (c *CSR) componentDiameter(v, done int32, left *int, a *Arena) (lb, ub int) {
	comp, center := c.sweep(v, true, false, a)
	cost := len(comp)
	for _, x := range comp {
		a.posMark[x] = done
		cost += int(c.Offsets[x+1] - c.Offsets[x])
	}
	far := comp[len(comp)-1]
	// Every BFS from s gives ecc(s) <= diam <= 2·ecc(s), and no shortest
	// path in a component is longer than its vertex count minus one.
	ecc := int(a.labels[far])
	lb, ub = ecc, min(2*ecc, len(comp)-1)
	// 4-sweep: v → its farthest a1 → the center r2 of {v, a1} → its
	// farthest a2 → the center u of all four sweep sources, where a
	// center minimizes the largest distance to the sources so far.
	//
	// The sweep from r2 is an iFUB root too: when a2 is the only vertex at
	// r2's eccentricity e2, a2's own sweep leaves every other pair within
	// 2(e2-1) of each other, so lb >= 2(e2-1) settles the component there.
	// That is why r2 is the middle of the tied centers: on a grid the ties
	// run along an anti-diagonal whose ends are corners, and only a vertex
	// near the middle has a lone farthest vertex.
	src := far
	swept := append(make([]int32, 0, 4), v)
	lone, e2 := false, 0
	for i := 0; i < 3 && lb < ub; i++ {
		var order []int32
		order, center = c.sweep(src, false, i == 0, a)
		swept = append(swept, src)
		far = order[len(order)-1]
		e := int(a.labels[far])
		lb, ub = max(lb, e), min(ub, 2*e)
		switch i {
		case 1:
			// A component that reaches this sweep has at least three
			// vertices.
			lone, e2 = a.labels[order[len(order)-2]] < int32(e), e
			src = far
		case 2:
			if lone && lb >= 2*(e2-1) {
				return lb, lb
			}
		default:
			src = center
		}
	}
	if lb == ub {
		return lb, ub
	}
	// iFUB from u = center: two vertices within distance i of u are at
	// most 2i apart, so once every vertex farther than i has had its BFS,
	// max(lb, 2i) bounds the diameter. A sweep source needs no second BFS:
	// its eccentricity is already in lb.
	order, eccU := c.distBFS(center, a)
	lb, ub = max(lb, eccU), min(ub, 2*eccU)
	a.order = append(a.order[:0], order...)
	k := len(a.order) - 1
	for i := int32(eccU); i > 0 && lb < 2*int(i); i-- {
		for ; k >= 0 && a.labels[a.order[k]] == i; k-- {
			if slices.Contains(swept, a.order[k]) {
				continue
			}
			if left != nil {
				if *left < cost {
					return lb, min(ub, 2*int(i))
				}
				*left -= cost
			}
			_, e := c.boundedBFS(a.order[k:k+1], -1, a)
			lb = max(lb, e)
		}
	}
	return lb, lb
}

// sweep runs one BFS of Diameter's 4-sweep from s, returning the reached
// vertices in BFS order (their distances from s in the arena's labels),
// and the center: a vertex whose largest distance to the sweep sources so
// far is smallest. Ties go to the lowest index, or with mid to the middle
// one of the tied vertices in BFS order. The per-vertex maxima live in the
// arena; first restarts them at s.
func (c *CSR) sweep(s int32, first, mid bool, a *Arena) (order []int32, center int32) {
	order, _ = c.distBFS(s, a)
	center, ties := s, 0
	for _, x := range order {
		if d := a.labels[x]; first || d > a.dmax[x] {
			a.dmax[x] = d
		}
		switch m, mc := a.dmax[x], a.dmax[center]; {
		case m < mc:
			center, ties = x, 1
		case m == mc:
			center, ties = min(center, x), ties+1
		}
	}
	if !mid {
		return order, center
	}
	best, k := a.dmax[center], ties/2
	for _, x := range order {
		if a.dmax[x] == best {
			if k == 0 {
				return order, x
			}
			k--
		}
	}
	return order, center
}

// distBFS runs a BFS from s, leaving each reached vertex's distance from s
// in the arena's labels, and returns the reached vertices in BFS order (a
// view into the arena queue) with the largest distance.
func (c *CSR) distBFS(s int32, a *Arena) ([]int32, int) {
	n := c.N()
	a.growMark(n)
	a.growSeen(n)
	stamp := nextGen(a.mark, &a.stamp)
	a.mark[s], a.labels[s] = stamp, 0
	q := append(a.queue[:0], s)
	offs, tgts, labels := c.Offsets, c.Targets, a.labels
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := labels[v] + 1
		for k := offs[v]; k < offs[v+1]; k++ {
			if u := tgts[k]; a.mark[u] != stamp {
				a.mark[u], labels[u] = stamp, d
				q = append(q, u)
			}
		}
	}
	a.queue = q[:0]
	return q, int(labels[q[len(q)-1]])
}

// FromCSR builds an adjacency-list Graph from a CSR in O(n + m) with two
// allocations (the row table and one shared backing buffer). FromEdges,
// graphio's Read, ReadLimited and ReadFile, ding's Generate, NewFan and
// NewStrip, and gen's batch-built constructors (Path, Cycle, Grid,
// Complete, RandomTree, RandomCactus, MaximalOuterplanar, CliquePendants,
// GNPConnected) use it to hand a *Graph to callers that want one; the
// solvers run on the CSR and need no bridge.
// The graph shares no storage with c, so c may be refilled or unmapped
// afterwards.
func FromCSR(c *CSR) *Graph {
	n := c.N()
	buf := make([]int, len(c.Targets))
	for i, t := range c.Targets {
		buf[i] = int(t)
	}
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		adj[v] = buf[c.Offsets[v]:c.Offsets[v+1]:c.Offsets[v+1]]
	}
	return &Graph{adj: adj, m: c.M()}
}
