package graph

import (
	"fmt"
	"slices"
)

// CSRFromEdges batch-builds the frozen CSR view of the simple undirected
// graph on n vertices directly from an edge list, skipping the
// adjacency-list *Graph intermediate entirely. It is the huge-graph
// ingestion primitive (graphio's parsers reach it through
// CSRFromEdgeChunks) and the one build of every generator in gen and
// ding, whose edge lists may repeat an edge (gen's MaximalOuterplanar
// does). Where FromEdgesUnchecked materializes n slice
// headers plus a shared backing array before Freeze flattens them again,
// CSRFromEdges runs a two-pass counting sort straight into the final flat
// arrays — one degree-count pass, one placement pass, then an in-place
// per-row sort/dedup compaction. Self-loops are dropped and duplicate
// edges (in either orientation) are collapsed, so the result is
// bit-identical to FromEdgesUnchecked(n, edges).Freeze(). It panics on
// out-of-range endpoints, matching AddEdge, and on inputs whose arc count
// overflows the int32 CSR substrate.
func CSRFromEdges(n int, edges [][2]int) *CSR {
	return CSRFromEdgeChunks(n, [][][2]int{edges})
}

// CSRFromEdgesChecked is CSRFromEdges for edge lists that must already
// be simple: an out-of-range endpoint, a self-loop or a duplicate edge (in
// either orientation) is rejected with the error AddEdgeChecked gives for
// the first offending edge in input order. It stays linear-time: one
// range and self-loop scan, then CSRFromEdges, which collapses duplicates
// — so a CSR with fewer than len(edges) edges means the input held one.
// Only the error paths look for the first duplicate. It panics on a
// negative n, matching New.
func CSRFromEdgesChecked(n int, edges [][2]int) (*CSR, error) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	for i, e := range edges {
		u, v := e[0], e[1]
		var bad error
		switch {
		case u < 0 || u >= n || v < 0 || v >= n:
			bad = errOutOfRange(u, v, n)
		case u == v:
			bad = errSelfLoop(u)
		default:
			continue
		}
		if dup := firstDuplicate(edges[:i]); dup != nil {
			return nil, dup
		}
		return nil, bad
	}
	c := CSRFromEdges(n, edges)
	if c.M() != len(edges) {
		return nil, firstDuplicate(edges)
	}
	return c, nil
}

// firstDuplicate reports the first edge of a loop-free list that repeats
// an earlier one (in either orientation), or nil if there is none.
func firstDuplicate(edges [][2]int) error {
	seen := make(map[[2]int]struct{}, len(edges))
	for _, e := range edges {
		key := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if _, ok := seen[key]; ok {
			return errDuplicate(e[0], e[1])
		}
		seen[key] = struct{}{}
	}
	return nil
}

// CSRFromEdgeChunks is CSRFromEdges over a pre-chunked edge list: the
// chunks are treated as one concatenated list, so parallel parsers can
// hand over their per-chunk buffers without a concatenating copy. The
// result depends only on the edge multiset, never on the chunking.
func CSRFromEdgeChunks(n int, chunks [][][2]int) *CSR {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	// Pass 1: degrees (self-loops dropped, duplicates still counted).
	deg := make([]int32, n)
	total := 0
	for _, edges := range chunks {
		for _, e := range edges {
			u, v := e[0], e[1]
			if u < 0 || u >= n || v < 0 || v >= n {
				panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
			}
			if u == v {
				continue
			}
			deg[u]++
			deg[v]++
			total += 2
		}
	}
	const maxInt32 = 1<<31 - 1
	if total > maxInt32 {
		panic(fmt.Sprintf("graph: %d arcs overflow the int32 CSR substrate", total))
	}
	offsets := make([]int32, n+1)
	run := int32(0)
	for v, d := range deg {
		offsets[v] = run
		run += d
	}
	offsets[n] = run
	// Pass 2: placement. deg doubles as the per-vertex write cursor.
	next := deg
	copy(next, offsets[:n])
	targets := make([]int32, total)
	for _, edges := range chunks {
		for _, e := range edges {
			u, v := e[0], e[1]
			if u == v {
				continue
			}
			targets[next[u]] = int32(v)
			next[u]++
			targets[next[v]] = int32(u)
			next[v]++
		}
	}
	// Pass 3: sort each row and collapse duplicates, compacting the
	// target array in place. The write cursor never overtakes the read
	// cursor (dedup only shrinks rows), so the overlap is safe.
	write := int32(0)
	for v := 0; v < n; v++ {
		start, end := offsets[v], offsets[v+1]
		row := targets[start:end]
		slices.Sort(row)
		offsets[v] = write
		last := int32(-1)
		for _, x := range row {
			if x != last {
				targets[write] = x
				write++
				last = x
			}
		}
	}
	offsets[n] = write
	return &CSR{Offsets: offsets, Targets: targets[:write:write]}
}
