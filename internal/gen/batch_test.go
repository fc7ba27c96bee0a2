package gen

import (
	"math/rand"
	"slices"
	"testing"

	"localmds/internal/ding"
	"localmds/internal/graph"
)

// kindMin is each FromKind kind's smallest accepted n.
var kindMin = map[string]int{
	"ding": 3, "cactus": 1, "tree": 1, "cycle": 3, "grid": 1, "grids": 144,
	"outerplanar": 3, "cliquependants": 4, "gnp": 1,
}

// dingKinds are ding's workload kinds by name.
var dingKinds = map[string]ding.WorkloadKind{
	"blockforest": ding.BlockForest, "stripchain": ding.StripChain, "mixed": ding.Mixed,
}

// sameAsReference reports a difference between a batch-built CSR and the
// reference generator's graph, in both representations.
func sameAsReference(t *testing.T, what string, got *graph.CSR, want *graph.Graph) {
	t.Helper()
	ref := want.Freeze()
	if !slices.Equal(got.Offsets, ref.Offsets) || !slices.Equal(got.Targets, ref.Targets) {
		t.Fatalf("%s: batch CSR (n=%d, m=%d) differs from the reference (n=%d, m=%d)",
			what, got.N(), got.M(), ref.N(), ref.M())
	}
	if !graph.FromCSR(got).Equal(want) {
		t.Fatalf("%s: batch graph differs from the reference", what)
	}
}

// testSizes returns the sizes from lo up to 1000: every n in the first
// ten, then a spread.
func testSizes(lo int) []int {
	var ns []int
	for n := lo; n < lo+10; n++ {
		ns = append(ns, n)
	}
	for _, n := range []int{37, 100, 144, 333, 577, 1000} {
		if n >= lo+10 {
			ns = append(ns, n)
		}
	}
	return ns
}

// seedsFor runs ten seeds on small graphs and three on large ones.
func seedsFor(n int) int64 {
	if n < 100 {
		return 10
	}
	return 3
}

func TestDingMatchesReference(t *testing.T) {
	for name, kind := range dingKinds {
		for _, tParam := range []int{3, 4, 5, 7} {
			for _, n := range testSizes(3) {
				for seed := int64(0); seed < seedsFor(n); seed++ {
					cfg := ding.Config{Kind: kind, N: n, T: tParam}
					got, err := ding.GenerateCSR(cfg, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					want, err := refDing(cfg, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					sameAsReference(t, name, got, want)
				}
			}
		}
	}
}

func TestFromKindMatchesReference(t *testing.T) {
	for kind, lo := range kindMin {
		for _, n := range testSizes(lo) {
			for seed := int64(0); seed < seedsFor(n); seed++ {
				got, err := FromKind(kind, n, 5, 0.05, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("%s n=%d: %v", kind, n, err)
				}
				want, err := refFromKind(kind, n, 5, 0.05, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("reference %s n=%d: %v", kind, n, err)
				}
				sameAsReference(t, kind, got, want)
			}
		}
	}
}

// TestConstructorsMatchReference covers the exported *graph.Graph
// constructors, which wrap the same edge lists.
func TestConstructorsMatchReference(t *testing.T) {
	for n := 0; n <= 40; n++ {
		sameAsReference(t, "Path", Path(n).Freeze(), refPath(n))
		sameAsReference(t, "Complete", Complete(n).Freeze(), refComplete(n))
		sameAsReference(t, "Grid", Grid(n/7, n%7).Freeze(), refGrid(n/7, n%7))
		for seed := int64(0); seed < 5; seed++ {
			rng := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
			sameAsReference(t, "RandomTree", RandomTree(n, rng()).Freeze(), refRandomTree(n, rng()))
			sameAsReference(t, "RandomCactus", RandomCactus(n, rng()).Freeze(), refRandomCactus(n, rng()))
			sameAsReference(t, "GNPConnected", GNPConnected(n, 0.2, rng()).Freeze(), refGNPConnected(n, 0.2, rng()))
			if n >= 3 {
				sameAsReference(t, "Cycle", Cycle(n).Freeze(), refCycle(n))
				sameAsReference(t, "MaximalOuterplanar", MaximalOuterplanar(n, rng()).Freeze(), refMaximalOuterplanar(n, rng()))
			}
			if n >= 2 {
				sameAsReference(t, "CliquePendants", CliquePendants(n).Freeze(), refCliquePendants(n))
			}
		}
	}
	for _, length := range []int{2, 3, 8} {
		f, err := ding.NewFan(length)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, "NewFan", f.G.Freeze(), refFan(length))
	}
	for _, rungs := range []int{2, 3, 8} {
		s, err := ding.NewStrip(rungs)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, "NewStrip", s.G.Freeze(), refStrip(rungs))
	}
}

// TestFromKindFingerprints pins every kind's output at two (n, seed)
// pairs to the fingerprints the per-edge generators produced, so a
// change to a generator's vertex numbering or RNG use shows even if the
// reference moves with it.
func TestFromKindFingerprints(t *testing.T) {
	pins := []struct {
		kind string
		n    int
		seed int64
		want string
	}{
		{"ding", 300, 1, "927a1ec40f5a66d6184fc1bcd2e0f6b8035012b71193586ec10cbe9bf757218d"},
		{"ding", 1000, 7, "905cc8e0e91aec24c1d54802d5d67a0b32f920c719ed2f13011e54e9bed9bea4"},
		{"cactus", 300, 1, "e87345f99946517c4b6347873f5f818d626f2a246f15280f37423e310121dfb8"},
		{"cactus", 1000, 7, "ef454c82a8a1c2bc14957f3f9f261ffe0e4e21d179780bbc283a38191bf58f24"},
		{"tree", 300, 1, "989123a6ef4739425da0bbb5b2b4db5efb9e68a661de6c73058c0f71e0416ee6"},
		{"tree", 1000, 7, "16ceeea0c5cc0a410efeaac97b3060cc093bcc8237bc2d01513b59ec9d313355"},
		{"cycle", 300, 1, "b468f359678850833120aba1a0142318fe9e01b006b7c1902458421c9a5bdee5"},
		{"cycle", 1000, 7, "c4b52943ac8c26a35269356987a2226e985422509a4675ddf8c064b33fead81a"},
		{"grid", 300, 1, "b92255dfc853a6bd4cde1db83955c141bbee39bb2ae1689615b916f1c5c6a980"},
		{"grid", 1000, 7, "7b398d31d877912cbd5544cf5a8c55af7329fb4f2322ed6814db13ea3470ceed"},
		{"grids", 300, 1, "a3cbcc46723c64db72e59d71c715bd364dc59811bbc6219fe6141361b30510c0"},
		{"grids", 1000, 7, "09d379995b9d1decf13698b99150d7f493aaaedb082efe19ea35902e89a3f1df"},
		{"outerplanar", 300, 1, "3fde122442e7b4ec1ade08152f06cd5752ac6b39a0576b8a7c72bc130105a5cd"},
		{"outerplanar", 1000, 7, "c3569fe522e19ea614b60697970f859bed8caa256d7cca4972cab56b9ce4b73f"},
		{"cliquependants", 300, 1, "72e9dfcb65ff4cd2ba7f43e84db207611f63b3fbb7005e3e77b32bf03ab87140"},
		{"cliquependants", 1000, 7, "c0eb6e90397c3fbd27cedb71f51b2ec5b99e3b6d8d0c51427db9ba937b6e0ba9"},
		{"gnp", 300, 1, "fb39aa8cbfaf457a56c1fdac884de6d23462f31c0083768a301913ba10ed2930"},
		{"gnp", 1000, 7, "890467281951895f508c0f593f070f0573e85a31db9257b9096823b4b7c852b6"},
	}
	for _, p := range pins {
		c, err := FromKind(p.kind, p.n, 5, 0.05, rand.New(rand.NewSource(p.seed)))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Fingerprint().String(); got != p.want {
			t.Errorf("%s n=%d seed=%d: fingerprint %s, want %s", p.kind, p.n, p.seed, got, p.want)
		}
	}
}

// fuzzKinds are the generators FuzzGenerators picks from: every FromKind
// kind, then ding's other two workload kinds.
var fuzzKinds = []string{
	"ding", "cactus", "tree", "cycle", "grid", "grids", "outerplanar", "cliquependants", "gnp",
	"blockforest", "stripchain",
}

// FuzzGenerators checks that every generator's batch build equals its
// per-edge reference at fuzzed (kind, n <= 2048, t, seed), and that both
// reject the same sizes.
func FuzzGenerators(f *testing.F) {
	f.Add(uint8(0), uint16(100), uint8(2), int64(1))
	f.Add(uint8(5), uint16(300), uint8(0), int64(2))
	f.Add(uint8(6), uint16(2), uint8(0), int64(3))
	f.Add(uint8(10), uint16(500), uint8(4), int64(4))
	f.Fuzz(func(t *testing.T, k uint8, n16 uint16, t8 uint8, seed int64) {
		kind := fuzzKinds[int(k)%len(fuzzKinds)]
		n, tParam := int(n16)%2049, 3+int(t8)%6
		if dk, ok := dingKinds[kind]; ok {
			cfg := ding.Config{Kind: dk, N: n, T: tParam}
			got, err := ding.GenerateCSR(cfg, rand.New(rand.NewSource(seed)))
			want, refErr := refDing(cfg, rand.New(rand.NewSource(seed)))
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s n=%d t=%d: error %v, reference error %v", kind, n, tParam, err, refErr)
			}
			if err == nil {
				sameAsReference(t, kind, got, want)
			}
			return
		}
		got, err := FromKind(kind, n, tParam, 0.05, rand.New(rand.NewSource(seed)))
		want, refErr := refFromKind(kind, n, tParam, 0.05, rand.New(rand.NewSource(seed)))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s n=%d t=%d: error %v, reference error %v", kind, n, tParam, err, refErr)
		}
		if err == nil {
			sameAsReference(t, kind, got, want)
		}
	})
}
