package graph

import "math"

// BlockTree is the block structure of a CSR: its blocks (maximal
// 2-connected subgraphs and bridges) and articulation points, as the
// block-cut tree of each component rooted at a block. It stores O(n)
// labels and no per-arc array:
//
//   - every vertex v with an edge has one parent block Label[v] — its only
//     block unless v is an articulation point (-1 for an isolated vertex);
//   - every block b has one parent articulation point Parent[b], the vertex
//     its DFS entered it through (-1 for a component's root block, Whole
//     when that block is its whole component);
//   - v belongs to b iff Label[v] == b or Parent[b] == v, and an edge with
//     both ends in b belongs to b (two blocks share at most one vertex).
type BlockTree struct {
	Art    []bool  // Art[v]: v is an articulation point of its component
	Label  []int32 // per vertex: its parent block, or -1 if it has no edge
	Parent []int32 // per block: its parent articulation point, -1 or Whole
}

// Whole is the Parent of a block that is its whole component: the
// component has no articulation point, so its balls need no block test.
const Whole = -2

// Blocks returns c's block tree from one iterative Hopcroft–Tarjan DFS
// (Hopcroft & Tarjan, "Efficient algorithms for graph manipulation", CACM
// 1973) in O(n + m). A finished child y of p with low[y] >= disc[p] closes
// a block: p and the vertices discovered since y, which a vertex stack
// holds, so no edge stack is kept. The first block a DFS root closes is
// its component's root block and gives the root its label; every later
// block closed at p makes p an articulation point and its parent. The
// DFS keeps discovery indices, its path and the vertex stack in the arena;
// the tree's three arrays are its only allocations: 5 bytes per vertex and
// 4 per block.
func (c *CSR) Blocks(a *Arena) *BlockTree {
	n := c.N()
	t := &BlockTree{Art: make([]bool, n), Label: make([]int32, n)}
	a.growSeen(n)
	nextGen(a.seen, &a.seenGen) // disc overwrites the last labeling
	disc := a.labels[:n]        // discovery index + 1; 0: not yet visited
	clear(disc)
	stack, verts := a.blockStack[:0], a.queue[:0]
	offs, tgts := c.Offsets, c.Targets
	clock := int32(1)
	for root := range int32(n) {
		if disc[root] != 0 {
			continue
		}
		t.Label[root] = -1 // until the root closes a block
		disc[root] = clock
		clock++
		rootBlock, art := int32(-1), false
		// The frame of the vertex v being scanned lives in v, k (its next
		// arc) and low; its ancestors' frames are on the stack.
		v, k, low := root, offs[root], disc[root]
		for {
			end := offs[v+1]
			for ; k < end; k++ {
				d := disc[tgts[k]]
				if d == 0 {
					break
				}
				low = min(low, d)
			}
			if k < end { // descend to the unvisited neighbor y
				y := tgts[k]
				stack = append(stack, blockFrame{v, k + 1, low})
				disc[y] = clock
				clock++
				verts = append(verts, y)
				v, k, low = y, offs[y], disc[y]
				continue
			}
			if len(stack) == 0 {
				break
			}
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			y, yLow := v, low
			v, k, low = p.v, p.next, min(p.low, yLow)
			if yLow < disc[v] {
				continue
			}
			b := int32(len(t.Parent))
			if v == root && rootBlock < 0 {
				rootBlock, t.Label[root] = b, b
				t.Parent = append(t.Parent, -1)
			} else {
				art, t.Art[v] = true, true
				t.Parent = append(t.Parent, v)
			}
			for {
				w := verts[len(verts)-1]
				verts = verts[:len(verts)-1]
				t.Label[w] = b
				if w == y {
					break
				}
			}
		}
		if rootBlock >= 0 && !art {
			t.Parent[rootBlock] = Whole
		}
	}
	a.blockStack, a.queue = stack[:0], verts[:0]
	return t
}

// blockFrame is one vertex on Blocks' DFS path.
type blockFrame struct {
	v    int32 // the vertex
	next int32 // index into Targets of its next unscanned edge
	low  int32 // smallest discovery index reached from its subtree
}

// In reports whether v belongs to block b.
func (t *BlockTree) In(v, b int32) bool { return t.Label[v] == b || t.Parent[b] == v }

// Shared returns the block holding both u and v, or -1 when none does; an
// edge {u, v} lies in exactly that block. One of the two has it as its
// parent block.
func (t *BlockTree) Shared(u, v int) int {
	if b := t.Label[u]; b >= 0 && t.In(int32(v), b) {
		return int(b)
	}
	if b := t.Label[v]; b >= 0 && t.Parent[b] == int32(u) {
		return int(b)
	}
	return -1
}

// MarkBlockBall is MarkBall inside block b of t: it marks N^r_b[{u, v}],
// the ball of G[b] (v < 0 marks N^r_b[u]; r < 0 means unbounded), whose
// members are exactly N^r[{u, v}] ∩ b because a shortest path between two
// vertices of a block never leaves it. u and v must belong to b. With
// b < 0 and v < 0 it marks the union of N^r_b[u] over u's blocks b, whose
// parts meet only in u. The ball is returned in BFS order, with open: the
// articulation points of the ball other than u and v that lie at distance
// less than r, whose other blocks therefore reach into N^r[{u, v}]. Both
// are views into the arena that the next operation overwrites, and the
// marks serve AppendSeparators and LabelComponents as MarkBall's do.
//
// Only an articulation point's arcs need a membership test: every other
// vertex of the ball has all its edges in the block it was reached in. A
// Whole block has none, and takes MarkBall's search.
func (c *CSR) MarkBlockBall(u, v, r int, t *BlockTree, b int, a *Arena) (ball, open []int32) {
	if b >= 0 && t.Parent[b] == Whole {
		return c.MarkBall(u, v, r, a), nil
	}
	a.growMark(c.N())
	stamp := nextGen(a.mark, &a.stamp)
	q := append(a.queue[:0], int32(u))
	a.mark[u] = stamp
	if v >= 0 && v != u {
		q = append(q, int32(v))
		a.mark[v] = stamp
	}
	sources := len(q)
	open = a.open[:0]
	offs, tgts := c.Offsets, c.Targets
	far := 0
	for head := 0; head < len(q) && far != r; {
		end := len(q)
		for ; head < end; head++ {
			x := q[head]
			blk := int32(-1) // follow every arc
			if t.Art[x] {
				if head >= sources {
					open = append(open, x)
					blk = int32(b)
					if b < 0 {
						blk = int32(t.Shared(u, int(x)))
					}
				} else if b >= 0 {
					blk = int32(b)
				}
			}
			for k := offs[x]; k < offs[x+1]; k++ {
				y := tgts[k]
				if a.mark[y] != stamp && (blk < 0 || t.In(y, blk)) {
					a.mark[y] = stamp
					q = append(q, y)
				}
			}
		}
		if len(q) > end {
			far++
		}
	}
	a.queue, a.open = q[:0], open[:0]
	return q, open
}

// OpenComponents marks the components of the last LabelComponents call
// that hold a vertex of open as reaching past the ball, so that
// ComponentsSeenBy counts them as uncovered by every vertex. After a block
// ball, open is MarkBlockBall's: the parts of N^r[{u, v}] beyond an open
// articulation point join its component, and none of them is adjacent to
// u or v.
func (a *Arena) OpenComponents(open []int32) {
	for _, x := range open {
		if a.seen[x] == a.seenGen && a.labels[x] >= 0 {
			a.compSize[a.labels[x]] = math.MaxInt32
		}
	}
}
