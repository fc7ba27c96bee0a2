package local

import (
	"strings"
	"testing"

	"localmds/internal/gen"
	"localmds/internal/graph"
)

// echoProcess outputs the multiset of neighbor IDs it hears in round 1 and
// halts in round 2.
type echoProcess struct {
	info NodeInfo
	ids  []int
}

func (p *echoProcess) Init(info NodeInfo) { p.info = info }

func (p *echoProcess) Round(round int, inbox []Message) ([]Message, bool) {
	if round == 1 {
		return Broadcast(p.info.Ports, p.info.ID), false
	}
	for _, m := range inbox {
		if id, ok := m.(int); ok {
			p.ids = append(p.ids, id)
		}
	}
	return nil, true
}

func (p *echoProcess) Output() any { return graph.Dedup(p.ids) }

func TestNewNetworkValidation(t *testing.T) {
	g := gen.Path(3)
	if _, err := NewNetwork(g, []int{1, 2}); err == nil {
		t.Error("short id slice accepted")
	}
	if _, err := NewNetwork(g, []int{1, 1, 2}); err == nil {
		t.Error("duplicate ids accepted")
	}
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if ids := nw.IDs(); len(ids) != 3 || ids[2] != 2 {
		t.Errorf("default ids = %v", ids)
	}
}

func TestEchoLearnsNeighbors(t *testing.T) {
	g := gen.Cycle(5)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(Sequential, func(int) Process { return &echoProcess{} }, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stats.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Stats.Rounds)
	}
	// Each of the 5 vertices broadcasts to 2 neighbors in round 1.
	if res.Stats.Messages != 10 {
		t.Errorf("Messages = %d, want 10", res.Stats.Messages)
	}
	for v := 0; v < g.N(); v++ {
		got := res.Outputs[v].([]int)
		want := graph.Dedup(g.Neighbors(v))
		if !graph.EqualSets(got, want) {
			t.Errorf("vertex %d heard %v, want %v", v, got, want)
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	g := gen.Grid(4, 5)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := nw.Run(Sequential, func(int) Process { return &echoProcess{} }, 0)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	parRes, err := nw.Run(Parallel, func(int) Process { return &echoProcess{} }, 0)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if seqRes.Stats != parRes.Stats {
		t.Errorf("stats differ: %+v vs %+v", seqRes.Stats, parRes.Stats)
	}
	for v := range seqRes.Outputs {
		a := seqRes.Outputs[v].([]int)
		b := parRes.Outputs[v].([]int)
		if !graph.EqualSets(a, b) {
			t.Errorf("vertex %d: outputs differ: %v vs %v", v, a, b)
		}
	}
}

// runawayProcess never halts.
type runawayProcess struct{ info NodeInfo }

func (p *runawayProcess) Init(info NodeInfo) { p.info = info }
func (p *runawayProcess) Round(int, []Message) ([]Message, bool) {
	return nil, false
}
func (p *runawayProcess) Output() any { return nil }

func TestMaxRoundsGuard(t *testing.T) {
	g := gen.Path(2)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(Sequential, func(int) Process { return &runawayProcess{} }, 10); err == nil {
		t.Error("runaway protocol not stopped")
	}
}

// TestRunRejectsMutatedGraph checks both guards against a graph changed
// after NewNetwork snapshotted its wires: a new vertex and a new edge.
func TestRunRejectsMutatedGraph(t *testing.T) {
	echo := func(int) Process { return &echoProcess{} }
	g := gen.Path(3)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.AddVertex()
	if _, err := nw.Run(Sequential, echo, 0); err == nil || !strings.Contains(err.Error(), "grew") {
		t.Errorf("added vertex: err = %v, want a grew error", err)
	}
	g = gen.Path(3)
	if nw, err = NewNetwork(g, nil); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 2)
	if _, err := nw.Run(Sequential, echo, 0); err == nil || !strings.Contains(err.Error(), "arcs") {
		t.Errorf("added edge: err = %v, want an arc-count error", err)
	}
}

// oversendProcess sends on more ports than it has.
type oversendProcess struct{ info NodeInfo }

func (p *oversendProcess) Init(info NodeInfo) { p.info = info }
func (p *oversendProcess) Round(int, []Message) ([]Message, bool) {
	return make([]Message, p.info.Ports+1), true
}
func (p *oversendProcess) Output() any { return nil }

func TestOversendRejected(t *testing.T) {
	g := gen.Path(3)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All entries nil => no messages actually sent, but the oversized
	// outbox itself is a protocol violation... nil messages are skipped,
	// so make one non-nil by using a custom process instead. Simpler: the
	// length check fires regardless.
	if _, err := nw.Run(Sequential, func(int) Process { return &oversendProcess{} }, 0); err == nil {
		t.Error("oversized outbox accepted")
	}
}

func TestGatherViews(t *testing.T) {
	g := gen.Path(7)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 4 // adjacency known to distance 2, ids to distance 3
	views, stats, err := GatherViews(nw, rounds, Sequential)
	if err != nil {
		t.Fatalf("GatherViews: %v", err)
	}
	if stats.Rounds != rounds {
		t.Errorf("Rounds = %d, want %d", stats.Rounds, rounds)
	}
	v3 := views[3]
	if v3.CenterID != 3 {
		t.Fatalf("center = %d, want 3", v3.CenterID)
	}
	// Adjacency of vertices at distance <= 2 must be known.
	for _, id := range []int{1, 2, 3, 4, 5} {
		if _, ok := v3.Adj[id]; !ok {
			t.Errorf("view of 3 missing adjacency of %d", id)
		}
	}
	// Identifiers at distance 3 are visible inside adjacency lists.
	known := v3.KnownIDs()
	if !graph.SortedContains(known, 0) || !graph.SortedContains(known, 6) {
		t.Errorf("view of 3 should reference ids 0 and 6: %v", known)
	}
}

func TestViewGraphMatchesBall(t *testing.T) {
	g := gen.Grid(4, 4)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	radius := 2
	views, _, err := GatherViews(nw, radius+2, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		vg, ids, center := views[v].Graph()
		if ids[center] != v {
			t.Fatalf("vertex %d: center mislabeled", v)
		}
		// The view graph must contain the full induced ball of the
		// radius: check all ball edges are present.
		ball := g.Ball(v, radius)
		for _, x := range ball {
			for _, y := range ball {
				if x < y && g.HasEdge(x, y) {
					xi, yi := indexIn(ids, x), indexIn(ids, y)
					if xi < 0 || yi < 0 || !vg.HasEdge(xi, yi) {
						t.Errorf("vertex %d: ball edge {%d,%d} missing from view", v, x, y)
					}
				}
			}
		}
	}
}

func indexIn(sorted []int, v int) int {
	for i, x := range sorted {
		if x == v {
			return i
		}
	}
	return -1
}

func TestGatherViewsWholeGraph(t *testing.T) {
	// Enough rounds: every vertex knows the entire graph.
	g := gen.Cycle(9)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	views, _, err := GatherViews(nw, g.Diameter()+2, Parallel)
	if err != nil {
		t.Fatal(err)
	}
	for v, view := range views {
		vg, _, _ := view.Graph()
		if vg.N() != g.N() || vg.M() != g.M() {
			t.Errorf("vertex %d: view graph %v, want full C9", v, vg)
		}
	}
}

func TestGatherEnginesAgree(t *testing.T) {
	g := gen.Grid(3, 6)
	nw, err := NewNetwork(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, sa, err := GatherViews(nw, 5, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := GatherViews(nw, 5, Parallel)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
	for v := range a {
		if !graph.EqualSets(a[v].KnownIDs(), b[v].KnownIDs()) {
			t.Errorf("vertex %d: known ids differ", v)
		}
	}
}

func TestCustomIDs(t *testing.T) {
	g := gen.Path(3)
	nw, err := NewNetwork(g, []int{100, 7, 42})
	if err != nil {
		t.Fatal(err)
	}
	views, _, err := GatherViews(nw, 4, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if views[1].CenterID != 7 {
		t.Errorf("center id = %d, want 7", views[1].CenterID)
	}
	if !graph.EqualSets(views[1].KnownIDs(), []int{7, 42, 100}) {
		t.Errorf("known ids = %v", views[1].KnownIDs())
	}
}
