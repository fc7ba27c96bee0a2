package graph

// BFS traversals. All queues are preallocated to n and consumed with a head
// index rather than `queue[1:]` re-slicing, so a full BFS performs exactly
// two allocations (dist + queue). When the graph has been frozen (see
// Freeze), the scan runs over the flat CSR arrays.

// BFSFrom runs a breadth-first search from source and returns the distance
// slice, with -1 for unreachable vertices.
func (g *Graph) BFSFrom(source int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := make([]int, 1, g.N())
	queue[0] = source
	g.bfsLoop(dist, queue, -1)
	return dist
}

// bfsLoop drains the queue, expanding vertices in FIFO order. A vertex at
// distance r (when r >= 0) is not expanded, truncating the search at radius
// r. dist must be -1 except at the enqueued sources.
func (g *Graph) bfsLoop(dist []int, queue []int, r int) {
	if c := g.csr; c != nil {
		offs, tgts := c.Offsets, c.Targets
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			d := dist[v]
			if d == r {
				continue
			}
			for k := offs[v]; k < offs[v+1]; k++ {
				u := tgts[k]
				if dist[u] < 0 {
					dist[u] = d + 1
					queue = append(queue, int(u))
				}
			}
		}
		return
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v]
		if d == r {
			continue
		}
		for _, u := range g.adj[v] {
			if dist[u] < 0 {
				dist[u] = d + 1
				queue = append(queue, u)
			}
		}
	}
}

// Dist returns the hop distance between u and v, or -1 if disconnected.
// Only test code calls it: cuts.IsLocalTwoCut, a test-only spec, and
// graph's bfs_test.go and cuts' local_test.go.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	return g.BFSFrom(u)[v]
}

// Ball returns N^r[v]: all vertices at distance at most r from v, sorted.
func (g *Graph) Ball(v, r int) []int {
	dist := g.boundedBFS([]int{v}, r)
	return collectReached(dist)
}

// BallOfSet returns N^r[S]: all vertices at distance at most r from some
// vertex of S, sorted.
func (g *Graph) BallOfSet(s []int, r int) []int {
	dist := g.boundedBFS(s, r)
	return collectReached(dist)
}

// ClosedNeighborhood returns N[v] = {v} ∪ N(v), sorted.
func (g *Graph) ClosedNeighborhood(v int) []int {
	return g.Ball(v, 1)
}

// boundedBFS is a multi-source BFS truncated at radius r (r < 0 means
// unbounded).
func (g *Graph) boundedBFS(sources []int, r int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, g.N())
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	g.bfsLoop(dist, queue, r)
	return dist
}

func collectReached(dist []int) []int {
	out := make([]int, 0)
	for v, d := range dist {
		if d >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// Diameter returns the largest distance between two vertices of the same
// component, considering only reachable pairs. It returns 0 for graphs with
// at most one vertex. It is CSR.Diameter over the cached frozen view, or
// over a temporary one when g is not frozen, so it never freezes g.
func (g *Graph) Diameter() int {
	c := g.csr
	if c == nil {
		c = buildCSR(g.adj)
	}
	diam, _, _ := c.Diameter(NewArena(), 0)
	return diam
}

// WeakDiameter returns the largest distance *in g* between two vertices of s
// (the weak diameter of s, §2 of the paper). Pairs in different components
// of g are ignored. It returns 0 when s has fewer than two vertices.
func (g *Graph) WeakDiameter(s []int) int {
	wd := 0
	for _, u := range s {
		dist := g.BFSFrom(u)
		for _, v := range s {
			if dist[v] > wd {
				wd = dist[v]
			}
		}
	}
	return wd
}
