package graph

import (
	"math/rand"
	"testing"
)

// TestFingerprintPresentationInvariance: the same labeled graph must
// fingerprint identically no matter how its edges are presented — shuffled
// order, swapped orientations, duplicates, interleaved self-loops, or a
// different construction path entirely.
func TestFingerprintPresentationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 50
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(4) == 0 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	want := FromEdgesUnchecked(n, edges).Freeze().Fingerprint()

	for trial := 0; trial < 10; trial++ {
		perm := append([][2]int(nil), edges...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := range perm {
			if rng.Intn(2) == 0 {
				perm[i][0], perm[i][1] = perm[i][1], perm[i][0]
			}
			if rng.Intn(3) == 0 { // duplicate some edges
				perm = append(perm, perm[i])
			}
		}
		perm = append(perm, [2]int{trial % n, trial % n}) // self-loop, dropped
		if got := FromEdgesUnchecked(n, perm).Freeze().Fingerprint(); got != want {
			t.Fatalf("trial %d: fingerprint changed under edge-presentation permutation:\n got %s\nwant %s", trial, got, want)
		}
	}

	// Incremental AddEdge construction in random order matches too.
	g := New(n)
	perm := append([][2]int(nil), edges...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, e := range perm {
		g.AddEdge(e[1], e[0])
	}
	if got := g.Freeze().Fingerprint(); got != want {
		t.Fatalf("AddEdge construction: got %s, want %s", got, want)
	}
}

// TestFingerprintDiscriminates: different labeled graphs get different
// fingerprints — extra isolated vertex, one edge removed, one relabeling.
func TestFingerprintDiscriminates(t *testing.T) {
	base := MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	want := base.Freeze().Fingerprint()

	bigger := MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if bigger.Freeze().Fingerprint() == want {
		t.Fatal("adding an isolated vertex should change the fingerprint")
	}
	fewer := MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if fewer.Freeze().Fingerprint() == want {
		t.Fatal("removing an edge should change the fingerprint")
	}
	// Same structure, different labels: a path 4-3-2-1-0 reversed is the
	// same labeled graph; 0-2-4-1-3 is not.
	relabeled := MustFromEdges(5, [][2]int{{0, 2}, {2, 4}, {4, 1}, {1, 3}})
	if relabeled.Freeze().Fingerprint() == want {
		t.Fatal("a relabeled (isomorphic but differently labeled) graph should change the fingerprint")
	}
	reversed := MustFromEdges(5, [][2]int{{4, 3}, {3, 2}, {2, 1}, {1, 0}})
	if reversed.Freeze().Fingerprint() != want {
		t.Fatal("reversed presentation of the same labeled path should not change the fingerprint")
	}
}

// TestFingerprintMutationInvalidation: a mutation after freezing is
// reflected in the next Freeze's fingerprint.
func TestFingerprintMutationInvalidation(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {1, 2}})
	before := g.Freeze().Fingerprint()
	g.AddEdge(2, 3)
	after := g.Freeze().Fingerprint()
	if before == after {
		t.Fatal("fingerprint did not change after AddEdge")
	}
	g.RemoveEdge(2, 3)
	if g.Freeze().Fingerprint() != before {
		t.Fatal("fingerprint did not return to the original after undoing the mutation")
	}
}

func TestFingerprintEmptyAndString(t *testing.T) {
	a, b := New(0).Freeze().Fingerprint(), New(1).Freeze().Fingerprint()
	if a == b {
		t.Fatal("empty graphs of different order should differ")
	}
	if len(a.String()) != 64 {
		t.Fatalf("hex fingerprint length = %d, want 64", len(a.String()))
	}
}
