package gen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"localmds/internal/graph"
)

// TestFromKindGrids pins the grids kind, tiled straight into CSR arrays,
// to the disjoint union of ⌊n/144⌋ Grid(12, 12) copies frozen through
// the Graph builder.
func TestFromKindGrids(t *testing.T) {
	for k := 1; k <= 3; k++ {
		want := Grid(12, 12)
		for i := 1; i < k; i++ {
			want = graph.DisjointUnion(want, Grid(12, 12))
		}
		ref := want.Freeze()
		// Any n in [144k, 144k+143] gives k components.
		for _, n := range []int{144 * k, 144*k + 143} {
			got, err := FromKind("grids", n, 5, 0, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			if !slices.Equal(got.Offsets, ref.Offsets) || !slices.Equal(got.Targets, ref.Targets) {
				t.Fatalf("k=%d n=%d: grids CSR (n=%d, m=%d) differs from %d disjoint Grid(12, 12) (n=%d, m=%d)",
					k, n, got.N(), got.M(), k, ref.N(), ref.M())
			}
		}
	}

	c, err := FromKind("grids", 10_943, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 75*144 || c.M() != 75*264 {
		t.Fatalf("n=10943: n=%d m=%d, want 75 components (%d, %d)", c.N(), c.M(), 75*144, 75*264)
	}

	for _, n := range []int{1, 143} {
		if _, err := FromKind("grids", n, 5, 0, nil); err == nil || !strings.Contains(err.Error(), "n >= 144") {
			t.Fatalf("n=%d: want an n >= 144 error, got %v", n, err)
		}
	}
}

// BenchmarkFromKind times every kind's generation at n = 10⁴, and ding's
// at 10⁶ (the graphgen scale), from RNG seed to CSR. Run it with
// -benchmem: the allocations are the per-layer attribution of input
// generation, which end-to-end runs count in their set-up time.
func BenchmarkFromKind(b *testing.B) {
	type size struct {
		kind string
		n    int
	}
	var sizes []size
	for _, kind := range strings.Split(Kinds, "|") {
		sizes = append(sizes, size{kind, 10_000})
	}
	sizes = append(sizes, size{"ding", 1_000_000})
	for _, s := range sizes {
		b.Run(fmt.Sprintf("%s/n=%d", s.kind, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FromKind(s.kind, s.n, 5, 0.05, rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
