package local

import (
	"testing"

	"localmds/internal/gen"
)

// Classic LOCAL building blocks kept as simulator fixtures for this
// package's protocol, engine-agreement and word-accounting tests: leader
// election by minimum identifier and BFS-tree construction rooted at the
// leader. Both are textbook flooding protocols with easily predictable
// round counts.

// LeaderResult is the output of the leader-election protocol.
type LeaderResult struct {
	LeaderID int
	IsLeader bool
}

// leaderProcess floods the minimum identifier seen so far; a vertex halts
// once the value has been stable for one round, which on a connected graph
// happens within eccentricity+1 rounds of the leader announcement. To keep
// termination local (no global knowledge of n), the protocol runs for
// exactly the given horizon of rounds; callers pass an upper bound on the
// diameter plus one.
type leaderProcess struct {
	horizon int
	info    NodeInfo
	min     int
}

// NewLeaderProcess returns a min-identifier leader election running for
// the given number of rounds (>= diameter + 1 for correctness).
func NewLeaderProcess(horizon int) Process {
	return &leaderProcess{horizon: horizon}
}

func (p *leaderProcess) Init(info NodeInfo) {
	p.info = info
	p.min = info.ID
}

func (p *leaderProcess) Round(round int, inbox []Message) ([]Message, bool) {
	changed := round == 1 // first round: everyone announces
	for _, m := range inbox {
		if id, ok := m.(int); ok && id < p.min {
			p.min = id
			changed = true
		}
	}
	halt := round >= p.horizon
	if changed && !halt {
		return Broadcast(p.info.Ports, p.min), false
	}
	return nil, halt
}

func (p *leaderProcess) Output() any {
	return LeaderResult{LeaderID: p.min, IsLeader: p.min == p.info.ID}
}

// ElectLeader runs the protocol and returns the per-vertex results.
func ElectLeader(nw *Network, horizon int) ([]LeaderResult, Stats, error) {
	res, err := nw.Run(func(int) Process { return NewLeaderProcess(horizon) }, horizon+1)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]LeaderResult, len(res.Outputs))
	for i, o := range res.Outputs {
		out[i] = o.(LeaderResult)
	}
	return out, res.Stats, nil
}

// BFSTreeResult is the per-vertex output of the BFS-tree protocol.
type BFSTreeResult struct {
	RootID   int
	ParentID int // -1 at the root and at unreached vertices
	Depth    int // -1 if unreached within the horizon
}

// bfsMsg announces "I joined the tree at this depth under this root".
type bfsMsg struct {
	RootID int
	Depth  int
	FromID int
}

// EstimatedSize implements Sizer (three identifiers).
func (bfsMsg) EstimatedSize() int { return 3 }

// bfsTreeProcess builds a BFS tree from the vertex with the given root
// identifier. The root announces in round 1; every vertex joins at the
// first announcement it hears and re-announces once.
type bfsTreeProcess struct {
	rootID  int
	horizon int
	info    NodeInfo
	parent  int
	depth   int
	joined  bool
	pending bool
}

// NewBFSTreeProcess returns the BFS-tree protocol rooted at rootID with the
// given round horizon (>= eccentricity of the root + 1).
func NewBFSTreeProcess(rootID, horizon int) Process {
	return &bfsTreeProcess{rootID: rootID, horizon: horizon, parent: -1, depth: -1}
}

func (p *bfsTreeProcess) Init(info NodeInfo) {
	p.info = info
	if info.ID == p.rootID {
		p.joined = true
		p.depth = 0
		p.pending = true
	}
}

func (p *bfsTreeProcess) Round(round int, inbox []Message) ([]Message, bool) {
	if !p.joined {
		best := -1
		var bestMsg bfsMsg
		for _, m := range inbox {
			bm, ok := m.(bfsMsg)
			if !ok {
				continue
			}
			if best < 0 || bm.FromID < bestMsg.FromID {
				best = 1
				bestMsg = bm
			}
		}
		if best > 0 {
			p.joined = true
			p.parent = bestMsg.FromID
			p.depth = bestMsg.Depth + 1
			p.pending = true
		}
	}
	halt := round >= p.horizon
	if p.pending {
		p.pending = false
		msg := bfsMsg{RootID: p.rootID, Depth: p.depth, FromID: p.info.ID}
		return Broadcast(p.info.Ports, msg), halt
	}
	return nil, halt
}

func (p *bfsTreeProcess) Output() any {
	return BFSTreeResult{RootID: p.rootID, ParentID: p.parent, Depth: p.depth}
}

// BuildBFSTree runs the protocol and returns the per-vertex results.
func BuildBFSTree(nw *Network, rootID, horizon int) ([]BFSTreeResult, Stats, error) {
	res, err := nw.Run(func(int) Process { return NewBFSTreeProcess(rootID, horizon) }, horizon+1)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]BFSTreeResult, len(res.Outputs))
	for i, o := range res.Outputs {
		out[i] = o.(BFSTreeResult)
	}
	return out, res.Stats, nil
}

func TestElectLeader(t *testing.T) {
	g := gen.Cycle(10)
	nw, err := NewNetwork(g.Freeze(), []int{5, 9, 3, 7, 1, 8, 2, 6, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := ElectLeader(nw, g.Diameter()+2)
	if err != nil {
		t.Fatal(err)
	}
	leaders := 0
	for v, r := range results {
		if r.LeaderID != 0 {
			t.Errorf("vertex %d elected %d, want 0", v, r.LeaderID)
		}
		if r.IsLeader {
			leaders++
			if nw.ids[v] != 0 {
				t.Errorf("vertex %d claims leadership with id %d", v, nw.ids[v])
			}
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
	if stats.Rounds == 0 {
		t.Error("no rounds recorded")
	}
}

func TestElectLeaderEnginesAgree(t *testing.T) {
	g := gen.Grid(4, 4)
	nw, err := NewNetwork(g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []LeaderResult
	var sa, sb Stats
	atProcs(1, func() { a, sa, err = ElectLeader(nw, 10) })
	if err != nil {
		t.Fatal(err)
	}
	atProcs(4, func() { b, sb, err = ElectLeader(nw, 10) })
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Errorf("vertex %d: %+v vs %+v", v, a[v], b[v])
		}
	}
}

func TestBuildBFSTree(t *testing.T) {
	g := gen.Path(7)
	nw, err := NewNetwork(g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := BuildBFSTree(nw, 0, g.Diameter()+2)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range results {
		if r.Depth != v {
			t.Errorf("vertex %d: depth %d, want %d", v, r.Depth, v)
		}
		wantParent := v - 1
		if v == 0 {
			wantParent = -1
		}
		if r.ParentID != wantParent {
			t.Errorf("vertex %d: parent %d, want %d", v, r.ParentID, wantParent)
		}
	}
}

func TestBuildBFSTreeGridDepths(t *testing.T) {
	g := gen.Grid(4, 5)
	nw, err := NewNetwork(g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := BuildBFSTree(nw, 0, g.Diameter()+2)
	if err != nil {
		t.Fatal(err)
	}
	dist := g.BFSFrom(0)
	for v, r := range results {
		if r.Depth != dist[v] {
			t.Errorf("vertex %d: depth %d, want BFS distance %d", v, r.Depth, dist[v])
		}
	}
}

func TestBuildBFSTreeShortHorizon(t *testing.T) {
	// Vertices beyond the horizon stay unreached (depth -1).
	g := gen.Path(10)
	nw, err := NewNetwork(g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := BuildBFSTree(nw, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if results[9].Depth != -1 {
		t.Errorf("far vertex reached within 3 rounds: %+v", results[9])
	}
	if results[1].Depth != 1 {
		t.Errorf("near vertex not reached: %+v", results[1])
	}
}

func TestWordAccounting(t *testing.T) {
	g := gen.Cycle(6)
	nw, err := NewNetwork(g.Freeze(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := GatherViews(nw, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Words <= stats.Messages {
		t.Errorf("gather words %d should exceed message count %d (payloads are records)", stats.Words, stats.Messages)
	}
	if stats.MaxMessageWords < 3 {
		t.Errorf("MaxMessageWords = %d, want >= 3 (id + two neighbors)", stats.MaxMessageWords)
	}
	// Min-ID leader election floods single identifiers: one word each,
	// within CONGEST's O(log n)-bit limit.
	_, stats, err = ElectLeader(nw, g.Diameter()+2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxMessageWords != 1 {
		t.Errorf("leader election MaxMessageWords = %d, want 1", stats.MaxMessageWords)
	}
}
