package minor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

func mustTheta(t *testing.T, lengths []int) *graph.Graph {
	t.Helper()
	g, err := gen.Theta(lengths)
	if err != nil {
		t.Fatalf("Theta(%v): %v", lengths, err)
	}
	return g
}

func TestHasK2tMinorPositives(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		t    int
	}{
		{"K23 itself", gen.CompleteBipartite(2, 3), 3},
		{"K24 itself", gen.CompleteBipartite(2, 4), 4},
		{"theta 3 paths", nil, 3}, // set below
		{"K5 has K23", gen.Complete(5), 3},
		{"C4 is K22", gen.Cycle(4), 2},
		{"long cycle has K22", gen.Cycle(12), 2},
		{"grid 3x4 has K23", gen.Grid(3, 4), 3},
	}
	tests[2].g = mustTheta(t, []int{2, 2, 2})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, ok, err := HasK2tMinor(tt.g, tt.t)
			if err != nil {
				t.Fatalf("HasK2tMinor: %v", err)
			}
			if !ok {
				t.Fatalf("HasK2tMinor = false, want true")
			}
			if err := VerifyKstModel(tt.g, m); err != nil {
				t.Errorf("returned model invalid: %v", err)
			}
			if len(m.Hubs) != 2 || len(m.Middles) != tt.t {
				t.Errorf("model shape hubs=%d middles=%d, want 2, %d", len(m.Hubs), len(m.Middles), tt.t)
			}
		})
	}
}

func TestHasK2tMinorNegatives(t *testing.T) {
	fan6 := func() *graph.Graph {
		g := graph.New(7)
		for i := 1; i <= 6; i++ {
			g.AddEdge(0, i)
			if i > 1 {
				g.AddEdge(i-1, i)
			}
		}
		return g
	}
	ladder := func(r int) *graph.Graph {
		g := graph.New(2 * r)
		for i := 0; i < r; i++ {
			g.AddEdge(2*i, 2*i+1)
			if i+1 < r {
				g.AddEdge(2*i, 2*(i+1))
				g.AddEdge(2*i+1, 2*(i+1)+1)
			}
		}
		return g
	}
	tests := []struct {
		name string
		g    *graph.Graph
		t    int
	}{
		{"tree no K22", gen.Path(8), 2},
		{"cycle no K23", gen.Cycle(9), 3},
		{"fan no K23", fan6(), 3},
		{"K23 no K24", gen.CompleteBipartite(2, 3), 4},
		{"theta3 no K24", mustTheta(t, []int{2, 2, 2}), 4},
		{"ladder no K25", ladder(6), 5},
		{"too few vertices", gen.Complete(3), 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, ok, err := HasK2tMinor(tt.g, tt.t)
			if err != nil {
				t.Fatalf("HasK2tMinor: %v", err)
			}
			if ok {
				t.Errorf("HasK2tMinor = true, want false")
			}
		})
	}
}

func TestHasK2tMinorErrors(t *testing.T) {
	if _, _, err := HasK2tMinor(gen.Path(3), 0); err == nil {
		t.Error("t = 0 accepted")
	}
	if _, _, err := HasK2tMinor(gen.Path(MaxExactVertices+1), 2); err == nil {
		t.Error("oversized graph accepted")
	}
}

func TestHasK1tMinor(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		t    int
		want bool
	}{
		{"star has K14", gen.Star(4), 4, true},
		{"star no K15", gen.Star(4), 5, false},
		{"path has K12", gen.Path(5), 2, true},
		{"path no K13", gen.Path(5), 3, false},
		// A path contracted has still max 2 outside neighbors; a spider
		// with 3 legs has K_{1,3}.
		{"spider has K13", gen.Caterpillar(1, 3), 3, true},
		{"K4 has K13", gen.Complete(4), 3, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, ok, err := HasK1tMinor(tt.g, tt.t)
			if err != nil {
				t.Fatalf("HasK1tMinor: %v", err)
			}
			if ok != tt.want {
				t.Fatalf("HasK1tMinor = %v, want %v", ok, tt.want)
			}
			if ok {
				if err := VerifyKstModel(tt.g, m); err != nil {
					t.Errorf("model invalid: %v", err)
				}
			}
		})
	}
}

func TestVerifyKstModelRejects(t *testing.T) {
	g := gen.CompleteBipartite(2, 3) // parts {0,1}, {2,3,4}
	valid := &Model{Hubs: [][]int{{0}, {1}}, Middles: [][]int{{2}, {3}, {4}}}
	if err := VerifyKstModel(g, valid); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []*Model{
		{Hubs: [][]int{{0}, {0}}, Middles: [][]int{{2}, {3}, {4}}}, // overlap
		{Hubs: [][]int{{0}, {1}}, Middles: [][]int{{2}, {3}, {}}},  // empty
		{Hubs: [][]int{{0}, {1}}, Middles: [][]int{{2, 3}, {4}}},   // disconnected middle {2,3}
		{Hubs: [][]int{{2}, {3}}, Middles: [][]int{{0}, {1}, {4}}}, // middle {4} not adjacent to hub {2}? 4 adjacent to 0,1 only -> hubs {2},{3} adjacent to 0,1 but {4} vs hub {2}: no edge
	}
	for i, m := range bad {
		if err := VerifyKstModel(g, m); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

// Property: monotonicity in t — if G has a K_{2,t} minor it has a K_{2,t'}
// minor for all t' < t.
func TestK2tMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(9, 0.3, rng)
		prev := true
		for tt := 2; tt <= 5; tt++ {
			_, ok, err := HasK2tMinor(g, tt)
			if err != nil {
				return false
			}
			if ok && !prev {
				return false // found at larger t after missing at smaller
			}
			prev = ok
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: every returned model verifies.
func TestK2tModelsVerifyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(10, 0.25, rng)
		for tt := 2; tt <= 4; tt++ {
			m, ok, err := HasK2tMinor(g, tt)
			if err != nil {
				return false
			}
			if ok && VerifyKstModel(g, m) != nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: deleting a vertex never creates a minor — if G - v has a
// K_{2,3} minor then so does G.
func TestK2tDeletionMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(9, 0.35, rng)
		_, okFull, err := HasK2tMinor(g, 3)
		if err != nil {
			return false
		}
		drop := int(uint(seed) % uint(g.N()))
		var keep []int
		for v := range g.N() {
			if v != drop {
				keep = append(keep, v)
			}
		}
		sub, _ := g.Induced(keep)
		_, okSub, err := HasK2tMinor(sub, 3)
		if err != nil {
			return false
		}
		return !okSub || okFull
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
