package cuts

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

func TestLocalOneCutsLongCycle(t *testing.T) {
	// The paper's discussion (§4): on a long cycle every vertex is a local
	// 1-cut even though none is a global cut vertex.
	g := gen.Cycle(30)
	r := 3
	locals := LocalOneCuts(g, r)
	if len(locals) != 30 {
		t.Errorf("cycle: %d local 1-cuts, want all 30", len(locals))
	}
	if arts := ArticulationPoints(g); len(arts) != 0 {
		t.Errorf("cycle has %d global cut vertices, want 0", len(arts))
	}
}

func TestLocalOneCutsShortCycleWithLargeRadius(t *testing.T) {
	// If r exceeds n/2 the ball is the whole cycle and no vertex is a
	// local 1-cut.
	g := gen.Cycle(8)
	if locals := LocalOneCuts(g, 5); len(locals) != 0 {
		t.Errorf("C8 with r=5: local 1-cuts = %v, want none", locals)
	}
	// With r = 3 the ball around v is a path (7 vertices) and v cuts it.
	if locals := LocalOneCuts(g, 3); len(locals) != 8 {
		t.Errorf("C8 with r=3: %d local 1-cuts, want 8", len(locals))
	}
}

func TestLocalOneCutsPath(t *testing.T) {
	g := gen.Path(7)
	locals := LocalOneCuts(g, 2)
	// All interior vertices cut their ball.
	if !graph.EqualSets(locals, []int{1, 2, 3, 4, 5}) {
		t.Errorf("P7 local 1-cuts = %v, want interior vertices", locals)
	}
}

func TestLocalOneCutMonotone(t *testing.T) {
	// §2: if there are no r-local cuts there are no r'-local cuts for
	// r' > r; equivalently the local-cut set shrinks as r grows.
	g := gen.Cycle(20)
	prev := len(LocalOneCuts(g, 2))
	for r := 3; r <= 11; r++ {
		cur := len(LocalOneCuts(g, r))
		if cur > prev {
			t.Errorf("r=%d: local 1-cuts grew from %d to %d", r, prev, cur)
		}
		prev = cur
	}
}

func TestGlobalCutIsLocalCutProperty(t *testing.T) {
	// A global cut vertex is an r-local 1-cut for every r >= 1... for r
	// large enough to see the separation — with r = n it always is
	// (a k-cut is a |V|-local k-cut, §2).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(12, 0.15, rng)
		n := g.N()
		locals := LocalOneCuts(g, n)
		return graph.EqualSets(graph.Dedup(locals), graph.Dedup(ArticulationPoints(g)))
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestIsLocalTwoCut(t *testing.T) {
	// Long path: {2, 4} is a 2-local 2-cut (separates {3} within the
	// ball).
	g := gen.Path(12)
	if !IsLocalTwoCut(g, 2, 4, 2) {
		t.Error("{2,4} should be a 2-local 2-cut of P12")
	}
	// Distance beyond r: not a local 2-cut.
	if IsLocalTwoCut(g, 2, 8, 2) {
		t.Error("{2,8} at distance 6 accepted with r=2")
	}
	if IsLocalTwoCut(g, 3, 3, 2) {
		t.Error("degenerate pair accepted")
	}
}

func TestLocalTwoCutsLongCycle(t *testing.T) {
	// On a long cycle with r = 2, a pair at distance 2 cuts its joint ball
	// (a 7-vertex path) into the singleton between them plus two arcs;
	// both cut vertices see two components, so the pair is a minimal local
	// 2-cut. A distance-1 pair splits the ball into two arcs but each cut
	// vertex sees only one, so it is not minimal. Hence exactly the 24
	// distance-2 pairs qualify.
	g := gen.Cycle(24)
	cutsFound := LocalTwoCuts(g, 2)
	if len(cutsFound) != 24 {
		t.Fatalf("C24 r=2: %d local 2-cuts, want 24: %v", len(cutsFound), cutsFound)
	}
	for _, c := range cutsFound {
		d := g.Dist(c.U, c.V)
		if d != 2 {
			t.Errorf("cut %v at distance %d, want 2", c, d)
		}
	}
}

func TestLocalTwoCutsMatchGlobalAtFullRadius(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(11, 0.18, rng)
		n := g.N()
		local := LocalTwoCuts(g, n)
		global := MinimalTwoCuts(g)
		if len(local) != len(global) {
			return false
		}
		for i := range local {
			if local[i] != global[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestIsLocallyInterestingPath(t *testing.T) {
	g := gen.Path(13)
	// Middle vertex 6 with cut {6, 8} at r=3: components of the ball minus
	// the cut include the left arc (with vertices non-adjacent to 8) and
	// {7}; 7 is adjacent to 8... so the second component with a
	// non-neighbor of 8 must be the right arc {9..}. Wait 9 is adjacent
	// to 8; 10 is not. So both arcs qualify and 6 is interesting.
	if !IsLocallyInteresting(g, 6, 8, 3) {
		t.Error("6 should be 3-interesting via {6,8} on P13")
	}
}

func TestLocallyInterestingCliquePendantsIsSmall(t *testing.T) {
	// The motivating example: many local 2-cut vertices, few interesting.
	g := gen.CliquePendants(7)
	interesting := LocallyInterestingVertices(g, 3)
	// Only vertex 0 or nothing should be interesting; certainly not the
	// clique vertices 1..6 whose cuts {0,v} have one undominated side.
	for _, v := range interesting {
		if v >= 1 && v <= 6 {
			t.Errorf("clique vertex %d is interesting; expected none", v)
		}
	}
}

func TestLocallyInterestingSubsetOfTwoCutVertices(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(11, 0.15, rng)
		r := 3
		interesting := LocallyInterestingVertices(g, r)
		inCut := make(map[int]bool)
		for _, c := range LocalTwoCuts(g, r) {
			inCut[c.U] = true
			inCut[c.V] = true
		}
		for _, v := range interesting {
			if !inCut[v] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// LocalTwoCuts enumerates all r-local minimal 2-cuts of g. Each pair is
// tested inside its own ball subgraph; candidates are limited to pairs
// within distance r.
func LocalTwoCuts(g *graph.Graph, r int) []TwoCut {
	var out []TwoCut
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Ball(u, r) {
			if v <= u {
				continue
			}
			if IsLocalTwoCut(g, u, v, r) {
				out = append(out, TwoCut{U: u, V: v})
			}
		}
	}
	return out
}
