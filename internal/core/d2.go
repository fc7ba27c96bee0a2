package core

import (
	"sort"

	"localmds/internal/graph"
	"localmds/internal/local"
)

// D2Result reports the Theorem 4.4 algorithm's outcome.
type D2Result struct {
	// S is the returned dominating set (original labels): the vertices of
	// the twin-reduced graph whose closed neighborhood cannot be dominated
	// by a single other vertex (γ(v) >= 2).
	S []int
	// Active lists the twin representatives.
	Active []int
}

// D2 runs the centralized Theorem 4.4 algorithm: reduce true twins, then
// return D2(Ĝ) = {v : no u != v has N[v] ⊆ N[u]} — a (2t-1)-approximate
// dominating set on K_{2,t}-minor-free graphs. It runs on g.Freeze();
// d2Sequential in d2_reference_test.go is the adjacency-list original.
func D2(g *graph.Graph) *D2Result {
	reduced, active := graph.TwinReduceCSR(g.Freeze())
	var sLocal []int
	for v := range reduced.N() {
		if gammaAtLeastTwo(reduced, v) {
			sLocal = append(sLocal, v)
		}
	}
	return &D2Result{S: mapBack(sLocal, active), Active: append([]int(nil), active...)}
}

// gammaAtLeastTwo reports γ(v) >= 2: no single vertex u != v dominates
// N[v], i.e. there is no u with N[v] ⊆ N[u]. Any such u lies in N(v)
// (v ∈ N[u] forces adjacency), so only neighbors need checking. Isolated
// vertices have γ(v) = ∞ >= 2 and are always taken.
func gammaAtLeastTwo(c *graph.CSR, v int) bool {
	for _, u := range c.Row(v) {
		if c.ClosedSubset(v, int(u)) {
			return false
		}
	}
	return true
}

// d2Process is the message-passing Theorem 4.4 algorithm. The paper counts
// 3 rounds (know your distance-2 neighborhood, decide); in our KT0 gather
// protocol the same knowledge — adjacency out to distance 3, needed to
// evaluate the twin reduction at the vertex's neighbors — costs 5 rounds
// (identifier exchange and one-hop-per-round record forwarding). The
// decision logic is identical.
type d2Process struct {
	g    local.Gatherer
	info local.NodeInfo
	inS  bool
}

// D2GatherRounds is the number of gather rounds the distributed Theorem 4.4
// implementation uses: adjacency to distance 3.
const D2GatherRounds = 5

// NewD2Process returns the distributed Theorem 4.4 process; outputs are
// booleans (membership in the dominating set).
func NewD2Process() local.Process {
	return &d2Process{}
}

func (p *d2Process) Init(info local.NodeInfo) {
	p.info = info
	p.g.Init(info)
}

func (p *d2Process) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	out := p.g.Step(round, inbox)
	if round < D2GatherRounds {
		return out, false
	}
	p.decide()
	return out, true
}

func (p *d2Process) Output() any { return p.inS }

func (p *d2Process) decide() {
	bg, ids, center := p.g.View().Graph()
	// One-shot twin reduction, evaluated locally: keep the min-identifier
	// representative per true-twin class. Our own status needs adjacency
	// to distance 2; our neighbors' status to distance 3 — both inside
	// the gathered view.
	kept := func(i int) bool {
		ni := bg.ClosedNeighborhood(i)
		for _, j := range bg.Neighbors(i) {
			if ids[j] < ids[i] && graph.EqualSets(ni, bg.ClosedNeighborhood(j)) {
				return false
			}
		}
		return true
	}
	if !kept(center) {
		p.inS = false
		return
	}
	// γ(center) on the reduced graph: reduced closed neighborhood is the
	// kept subset of the real one.
	reducedClosed := func(i int) []int {
		var out []int
		for _, j := range bg.ClosedNeighborhood(i) {
			if kept(j) {
				out = append(out, j)
			}
		}
		sort.Ints(out)
		return out
	}
	nv := reducedClosed(center)
	for _, u := range bg.Neighbors(center) {
		if !kept(u) {
			continue
		}
		if graph.IsSubset(nv, reducedClosed(u)) {
			p.inS = false
			return
		}
	}
	p.inS = true
}

// RunD2 executes the distributed Theorem 4.4 algorithm on g and returns
// the dominating set, run statistics, and any simulator error.
func RunD2(g *graph.Graph, ids []int, engine local.Engine) ([]int, local.Stats, error) {
	nw, err := local.NewNetwork(g, ids)
	if err != nil {
		return nil, local.Stats{}, err
	}
	res, err := nw.Run(engine, func(int) local.Process { return NewD2Process() }, 0)
	if err != nil {
		return nil, local.Stats{}, err
	}
	var s []int
	for v, out := range res.Outputs {
		if in, ok := out.(bool); ok && in {
			s = append(s, v)
		}
	}
	return s, res.Stats, nil
}
