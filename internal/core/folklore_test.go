package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"localmds/internal/gen"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
)

func TestTreeMDSKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want []int
	}{
		{"empty", graph.New(0), nil},
		{"single", gen.Path(1), []int{0}},
		{"edge", gen.Path(2), []int{0}},
		{"path5", gen.Path(5), []int{1, 2, 3}},
		{"star", gen.Star(5), []int{0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := TreeMDS(tt.g.Freeze())
			if !graph.EqualSets(graph.Dedup(got), graph.Dedup(tt.want)) {
				t.Errorf("TreeMDS = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTreeMDSRatioOnTrees(t *testing.T) {
	// The folklore bound: 3-approximation on trees with >= 3 vertices.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(30, rng)
		s := TreeMDS(g.Freeze())
		if !mds.IsDominatingSetCSR(g.Freeze(), s) {
			t.Fatalf("seed %d: not dominating", seed)
		}
		opt, err := mds.ExactMDS(g.Freeze(), mds.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(s) > 3*len(opt) {
			t.Errorf("seed %d: |S| = %d > 3 OPT = %d", seed, len(s), 3*len(opt))
		}
	}
}

func TestRunTreeMDSTwoRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.RandomTree(25, rng)
	got, stats, err := RunTreeMDS(g.Freeze(), nil, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (footnote 3 of the paper)", stats.Rounds)
	}
	want := TreeMDS(g.Freeze())
	if !graph.EqualSets(got, want) {
		t.Errorf("process = %v, centralized = %v", got, want)
	}
}

func TestRunTreeMDSSingleton(t *testing.T) {
	got, stats, err := RunTreeMDS(gen.Path(1).Freeze(), nil, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || stats.Rounds != 1 {
		t.Errorf("singleton: set %v rounds %d", got, stats.Rounds)
	}
}

func TestTakeAllMDS(t *testing.T) {
	g := gen.Star(3) // max degree 3: K_{1,4}-minor-free-ish bound
	s := TakeAllMDS(g.Freeze())
	if len(s) != g.N() {
		t.Errorf("TakeAllMDS returned %d of %d", len(s), g.N())
	}
	if !mds.IsDominatingSetCSR(g.Freeze(), s) {
		t.Error("not dominating")
	}
	// Folklore ratio on bounded-degree graphs: n <= (Δ+1) OPT.
	opt, err := mds.ExactMDS(g.Freeze(), mds.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	for v := range g.N() {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	if len(s) > (maxDeg+1)*len(opt) {
		t.Errorf("take-all bound violated: %d > %d", len(s), (maxDeg+1)*len(opt))
	}
}

func TestRegularMVC(t *testing.T) {
	g, err := gen.RegularLike(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := RegularMVC(g.Freeze())
	if !mds.IsVertexCover(g.Freeze(), s) {
		t.Fatal("not a cover")
	}
	opt, err := mds.ExactMVC(g.Freeze(), mds.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) > 2*len(opt) {
		t.Errorf("regular MVC bound violated: %d > 2x%d", len(s), len(opt))
	}
}

func TestRunExactGather(t *testing.T) {
	g := gen.Cycle(9)
	got, stats, err := RunExactGather(g.Freeze(), nil, local.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if !mds.IsDominatingSetCSR(g.Freeze(), got) {
		t.Fatal("not dominating")
	}
	opt, err := mds.ExactMDS(g.Freeze(), mds.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(opt) {
		t.Errorf("|S| = %d, want OPT = %d", len(got), len(opt))
	}
	// Footnote 2: a diameter-D graph needs ~D rounds; our gather protocol
	// costs diameter+2.
	if want := g.Diameter() + 2; stats.Rounds != want {
		t.Errorf("rounds = %d, want %d", stats.Rounds, want)
	}
}

// Property: the exact-gather process is exactly optimal on small connected
// graphs.
func TestRunExactGatherOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNPConnected(12, 0.2, rng)
		got, _, err := RunExactGather(g.Freeze(), nil, local.Sequential)
		if err != nil {
			return false
		}
		opt, err := mds.ExactMDS(g.Freeze(), mds.ExactOptions{})
		if err != nil {
			return false
		}
		return mds.IsDominatingSetCSR(g.Freeze(), got) && len(got) == len(opt)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The footnote-2 exact algorithm lives here because only the tests above
// run it: its centralized reference is mds.ExactMDS itself.

// exactGatherProcess gathers until its view is closed (no vertex with
// unresolved adjacency), then solves MDS on the collected graph.
type exactGatherProcess struct {
	g    local.Gatherer
	info local.NodeInfo
	inS  bool
}

// NewExactGatherProcess returns the whole-graph-gathering exact process.
func NewExactGatherProcess() local.Process { return &exactGatherProcess{} }

func (p *exactGatherProcess) Init(info local.NodeInfo) {
	p.info = info
	p.g.Init(info)
}

func (p *exactGatherProcess) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	out := p.g.Step(round, inbox)
	if round < 3 {
		return out, false
	}
	view := p.g.View()
	// Closed: every identifier referenced in an adjacency list has its own
	// adjacency resolved.
	for _, nbrs := range view.Adj {
		for _, u := range nbrs {
			if _, ok := view.Adj[u]; !ok {
				return out, false
			}
		}
	}
	// One extra quiet round guarantees every other vertex also closed...
	// not needed for correctness: the solve is deterministic on identical
	// views, and all vertices of a connected graph close on the same
	// complete view.
	vc, _, center := view.CSR()
	sol, err := mds.ExactMDS(vc, mds.ExactOptions{})
	if err != nil {
		// Too large for the exact solver: fall back to greedy, still
		// consistent across vertices.
		sol = mds.GreedyMDS(vc)
	}
	for _, v := range sol {
		if v == center {
			p.inS = true
		}
	}
	return out, true
}

func (p *exactGatherProcess) Output() any { return p.inS }

// RunExactGather executes the footnote-2 algorithm: on a diameter-D graph,
// gather everything in D+2 rounds and solve exactly and consistently.
func RunExactGather(c *graph.CSR, ids []int, engine local.Engine) ([]int, local.Stats, error) {
	return runBooleanProcess(c, ids, engine, func(int) local.Process { return NewExactGatherProcess() })
}
