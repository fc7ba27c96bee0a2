package cuts

import (
	"testing"

	"localmds/internal/graph"
)

// maxFuzzN bounds the fuzzed graphs' vertex count.
const maxFuzzN = 40

// fuzzBlocks decodes fuzz bytes into a graph glued from blocks, so that
// articulation points occur. It starts from one vertex; each byte triple
// (kind, size, at) adds a piece whose first vertex is the existing vertex
// at mod n: a cycle of 3..8 vertices, a ladder of 2..6 rungs, a clique of
// 3..5 vertices or a pendant path of 1..4 new vertices, or (kind 4) a
// chord between at and size mod n, which merges blocks. Pieces that
// would pass maxFuzzN vertices are skipped.
func fuzzBlocks(data []byte) *graph.CSR {
	n := 1
	var edges [][2]int
	for i := 0; i+2 < len(data); i += 3 {
		kind, size, at := int(data[i])%5, int(data[i+1]), int(data[i+2])%n
		var piece [][2]int // local ids; local 0 is at
		k := 0             // local vertex count
		switch kind {
		case 0:
			k = 3 + size%6
			for v := 0; v < k; v++ {
				piece = append(piece, [2]int{v, (v + 1) % k})
			}
		case 1:
			rungs := 2 + size%5
			k = 2 * rungs
			for j := 0; j < rungs; j++ {
				piece = append(piece, [2]int{2 * j, 2*j + 1})
				if j+1 < rungs {
					piece = append(piece, [2]int{2 * j, 2*j + 2}, [2]int{2*j + 1, 2*j + 3})
				}
			}
		case 2:
			k = 3 + size%3
			for u := 0; u < k; u++ {
				for v := u + 1; v < k; v++ {
					piece = append(piece, [2]int{u, v})
				}
			}
		case 3:
			k = 2 + size%4
			for v := 0; v+1 < k; v++ {
				piece = append(piece, [2]int{v, v + 1})
			}
		case 4:
			if v := size % n; v != at {
				edges = append(edges, [2]int{at, v})
			}
			continue
		}
		if n+k-1 > maxFuzzN {
			continue
		}
		id := func(v int) int {
			if v == 0 {
				return at
			}
			return n + v - 1
		}
		for _, e := range piece {
			edges = append(edges, [2]int{id(e[0]), id(e[1])})
		}
		n += k - 1
	}
	return graph.CSRFromEdges(n, edges)
}

// FuzzLocalCuts differentially fuzzes the block-restricted Cuts kernel:
// both entry points at 1 and 3 workers against the whole-graph oracle,
// on glued block graphs at r1 ∈ 1..6 and r2 ∈ 2..6 (radii past the
// diameter included, so saturated balls are covered too).
func FuzzLocalCuts(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 4, 0})                                      // C7
	f.Add(uint8(1), uint8(2), []byte{0, 0, 0, 1, 4, 0})                             // a 6-rung ladder glued to a triangle
	f.Add(uint8(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})           // a star of four triangles
	f.Add(uint8(3), uint8(4), []byte{1, 3, 0, 3, 2, 5, 0, 1, 9, 4, 13, 2, 2, 0, 3}) // ladder, path, cycle, chord, clique
	f.Fuzz(func(t *testing.T, r1, r2 uint8, data []byte) {
		c := fuzzBlocks(data)
		checkAgainstOracle(t, "fuzz", c, 1+int(r1)%6, 2+int(r2)%5, 1, 3)
	})
}
