package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// equalCSR reports bit-identical frozen views.
func equalCSR(a, b *CSR) bool {
	if len(a.Offsets) != len(b.Offsets) || len(a.Targets) != len(b.Targets) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			return false
		}
	}
	return true
}

// randomEdgeSoup draws a messy edge list: duplicates in both orientations,
// self-loops, repeated vertices — everything the tolerant batch builders
// must collapse.
func randomEdgeSoup(n, m int, rng *rand.Rand) [][2]int {
	edges := make([][2]int, m)
	for i := range edges {
		switch rng.Intn(10) {
		case 0: // self-loop
			v := rng.Intn(n)
			edges[i] = [2]int{v, v}
		case 1: // duplicate of an earlier edge, maybe flipped
			if i > 0 {
				e := edges[rng.Intn(i)]
				if rng.Intn(2) == 0 {
					e[0], e[1] = e[1], e[0]
				}
				edges[i] = e
				continue
			}
			fallthrough
		default:
			edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
	}
	return edges
}

// Property: CSRFromEdges is bit-identical to the adjacency-list route
// FromEdgesUnchecked(...).Freeze() on arbitrary messy edge lists.
func TestCSRFromEdgesMatchesFreeze(t *testing.T) {
	f := func(seed int64, rawN uint8, rawM uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%64) + 1
		m := int(rawM % 512)
		edges := randomEdgeSoup(n, m, rng)
		want := FromEdgesUnchecked(n, edges).Freeze()
		got := CSRFromEdges(n, edges)
		return equalCSR(got, want) && got.Fingerprint() == want.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the chunked build depends only on the concatenated edge list,
// never on the chunk boundaries.
func TestCSRFromEdgeChunksChunkingInvariance(t *testing.T) {
	f := func(seed int64, rawN uint8, rawM uint16, rawK uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%64) + 1
		m := int(rawM % 512)
		edges := randomEdgeSoup(n, m, rng)
		want := CSRFromEdges(n, edges)
		k := int(rawK%7) + 1
		var chunks [][][2]int
		for lo := 0; lo < len(edges); {
			hi := lo + rng.Intn(len(edges)/k+1) + 1
			if hi > len(edges) {
				hi = len(edges)
			}
			chunks = append(chunks, edges[lo:hi])
			lo = hi
		}
		return equalCSR(CSRFromEdgeChunks(n, chunks), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSRFromEdgesEmptyAndIsolated(t *testing.T) {
	c := CSRFromEdges(0, nil)
	if c.N() != 0 || len(c.Targets) != 0 {
		t.Fatalf("empty graph: n=%d arcs=%d", c.N(), len(c.Targets))
	}
	c = CSRFromEdges(5, nil)
	if c.N() != 5 || len(c.Targets) != 0 {
		t.Fatalf("isolated vertices: n=%d arcs=%d", c.N(), len(c.Targets))
	}
	want := FromEdgesUnchecked(5, nil).Freeze()
	if c.Fingerprint() != want.Fingerprint() {
		t.Fatal("isolated-vertex fingerprint mismatch")
	}
}

func TestCSRFromEdgesPanicsLikeAddEdge(t *testing.T) {
	for _, bad := range [][2]int{{-1, 0}, {0, 3}, {7, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %v out of range [0,3) did not panic", bad)
				}
			}()
			CSRFromEdges(3, [][2]int{bad})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative vertex count did not panic")
			}
		}()
		CSRFromEdges(-1, nil)
	}()
}

// CSRFromEdgesChecked keeps the per-edge AddEdgeChecked semantics exactly
// while building in linear time: the same CSR, or the same first offending
// edge and message, on random lists and on lists whose errors compete for
// first place. FromEdges, built on it, is checked the same way.
func TestCSRFromEdgesCheckedMatchesAddEdgeChecked(t *testing.T) {
	type edgeList struct {
		n     int
		edges [][2]int
	}
	lists := []edgeList{
		{0, nil},
		{3, nil},
		{0, [][2]int{{0, 0}}},
		{3, [][2]int{{0, 1}, {1, 2}, {2, 0}}},
		{3, [][2]int{{0, 1}, {1, 0}}}, // reversed duplicate
		{3, [][2]int{{0, 1}, {1, 2}, {2, 1}, {1, 0}}}, // first duplicate wins
		{3, [][2]int{{0, 1}, {0, 1}, {0, 5}}},         // duplicate before range
		{3, [][2]int{{0, 1}, {0, 5}, {0, 1}}},         // range before duplicate
		{3, [][2]int{{0, 1}, {1, 1}, {1, 0}}},         // loop before duplicate
		{3, [][2]int{{0, 1}, {1, 0}, {2, 2}}},         // duplicate before loop
		{3, [][2]int{{-1, 0}}},
		{3, [][2]int{{0, -1}}},
		{3, [][2]int{{3, 0}}},
		{3, [][2]int{{1, 2}, {2, 2}, {7, 7}}},
	}
	rng := rand.New(rand.NewSource(11))
	for range 400 {
		n := rng.Intn(12)
		edges := make([][2]int, rng.Intn(20))
		for i := range edges {
			edges[i] = [2]int{rng.Intn(n+2) - 1, rng.Intn(n+2) - 1}
		}
		lists = append(lists, edgeList{n, edges})
	}
	for range 100 { // valid simple graphs, shuffled
		n := 2 + rng.Intn(30)
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(4) == 0 {
					edges = append(edges, [2]int{v, u})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		lists = append(lists, edgeList{n, edges})
	}
	for i, l := range lists {
		want := New(l.n)
		var wantErr error
		for _, e := range l.edges {
			if wantErr = want.AddEdgeChecked(e[0], e[1]); wantErr != nil {
				break
			}
		}
		got, err := CSRFromEdgesChecked(l.n, l.edges)
		g, gErr := FromEdges(l.n, l.edges)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("list %d %v: error %v, AddEdgeChecked %q", i, l.edges, err, wantErr)
			}
			if gErr == nil || gErr.Error() != wantErr.Error() {
				t.Fatalf("list %d %v: FromEdges error %v, AddEdgeChecked %q", i, l.edges, gErr, wantErr)
			}
		case err != nil || gErr != nil:
			t.Fatalf("list %d %v: rejected (%v, %v), AddEdgeChecked accepts", i, l.edges, err, gErr)
		case !equalCSR(got, want.Freeze()):
			t.Fatalf("list %d %v: CSR differs from the AddEdgeChecked build", i, l.edges)
		case !g.Equal(want) || g.Validate() != nil:
			t.Fatalf("list %d %v: FromEdges differs from the AddEdgeChecked build", i, l.edges)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative vertex count did not panic")
			}
		}()
		CSRFromEdgesChecked(-1, [][2]int{{0, 1}})
	}()
}
