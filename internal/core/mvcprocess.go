package core

import (
	"slices"
	"sort"

	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
)

// MVCD2GatherRounds is the gather horizon of the distributed Theorem 4.4
// MVC variant: adjacency to distance 5 (the final edge-repair step needs
// the take-status of the neighbors' reduced neighbors).
const MVCD2GatherRounds = 7

// mvcD2Process is the message-passing MVCD2: gather, then decide everything
// locally by replaying the centralized pipeline (twin keep -> gamma test ->
// reduced repair -> twin-level repair) inside the view.
type mvcD2Process struct {
	g    local.Gatherer
	info local.NodeInfo
	inS  bool
}

// NewMVCD2Process returns the distributed Theorem 4.4 MVC process.
func NewMVCD2Process() local.Process { return &mvcD2Process{} }

func (p *mvcD2Process) Init(info local.NodeInfo) {
	p.info = info
	p.g.Init(info)
}

func (p *mvcD2Process) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	out := p.g.Step(round, inbox)
	if round < MVCD2GatherRounds {
		return out, false
	}
	p.decide()
	return out, true
}

func (p *mvcD2Process) Output() any { return p.inS }

func (p *mvcD2Process) decide() {
	bg, ids, center := p.g.View().Graph()
	// One-shot twin keep per vertex (trustworthy within the horizon).
	kept := make([]bool, bg.N())
	for i := range kept {
		kept[i] = true
		ni := bg.ClosedNeighborhood(i)
		for _, j := range bg.Neighbors(i) {
			if ids[j] < ids[i] && graph.EqualSets(ni, bg.ClosedNeighborhood(j)) {
				kept[i] = false
				break
			}
		}
	}
	var keptVerts []int
	for i, k := range kept {
		if k {
			keptVerts = append(keptVerts, i)
		}
	}
	rg, ridx := bg.Induced(keptVerts)
	rc := rg.Freeze()
	// take: gamma >= 2 on the reduced graph, non-isolated only.
	take := make([]bool, rg.N())
	for v := 0; v < rg.N(); v++ {
		take[v] = rg.Degree(v) > 0 && gammaAtLeastTwo(rc, v)
	}
	// Reduced-level repair: compare by identifier, exactly like the
	// centralized pass compares reduced indices (which are identifier-
	// ordered for identity assignments).
	repaired := append([]bool(nil), take...)
	for v := 0; v < rg.N(); v++ {
		if take[v] {
			continue
		}
		for _, u := range rg.Neighbors(v) {
			if !take[u] && ids[ridx[v]] < ids[ridx[u]] {
				repaired[v] = true
				break
			}
		}
	}
	// Map to the full view graph.
	cover := make([]bool, bg.N())
	for v, ok := range repaired {
		if ok {
			cover[ridx[v]] = true
		}
	}
	// Twin-level repair on g.
	final := cover[center]
	if !final {
		for _, y := range bg.Neighbors(center) {
			if !cover[y] && ids[center] < ids[y] {
				final = true
				break
			}
		}
	}
	p.inS = final
}

// RunMVCD2 executes the distributed Theorem 4.4 MVC variant.
func RunMVCD2(g *graph.Graph, ids []int, engine local.Engine) ([]int, local.Stats, error) {
	return runBooleanProcess(g, ids, engine, func(int) local.Process { return NewMVCD2Process() })
}

// mvcAlg1Process is the message-passing Algorithm 1 MVC variant: gather,
// take local 1-cuts and all local 2-cut vertices, then flood residual
// components (vertices with an uncovered incident edge) and solve exact
// vertex cover per component.
type mvcAlg1Process struct {
	p            Params
	gatherRounds int
	g            local.Gatherer
	info         local.NodeInfo
	inS1         bool
	participant  bool
	records      map[int]partRecord
	scratch      []floodRecord // reused per-round fresh-record buffer
	inS          bool
}

// MVCAlg1GatherRounds returns the gather horizon for the given radii:
// adjacency to distance max(R1, 2*R2)+2 (own decision, then the
// participant status of neighbors).
func MVCAlg1GatherRounds(p Params) int {
	r := p.R1
	if 2*p.R2 > r {
		r = 2 * p.R2
	}
	return r + 2 + 2
}

// NewMVCAlg1Process returns the distributed Algorithm 1 MVC process.
func NewMVCAlg1Process(p Params) local.Process {
	return &mvcAlg1Process{p: p, gatherRounds: MVCAlg1GatherRounds(p)}
}

func (a *mvcAlg1Process) Init(info local.NodeInfo) {
	a.info = info
	a.g.Init(info)
}

func (a *mvcAlg1Process) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	if round <= a.gatherRounds {
		out := a.g.Step(round, inbox)
		if round == a.gatherRounds {
			a.decide()
			if !a.participant {
				a.inS = a.inS1
				return out, true
			}
		}
		return out, false
	}
	fresh := a.scratch[:0]
	if round == a.gatherRounds+1 {
		// Sorting pins the broadcast order even if seeding ever grows to
		// multiple records: message contents must not depend on map order.
		for id, rec := range a.records {
			fresh = append(fresh, floodRecord{ID: id, Rec: rec})
		}
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID < fresh[j].ID })
	}
	for _, m := range inbox {
		fm, ok := m.(*floodMsg)
		if !ok {
			continue
		}
		for _, fr := range fm.records {
			if _, known := a.records[fr.ID]; !known {
				a.records[fr.ID] = fr.Rec
				fresh = append(fresh, fr)
			}
		}
	}
	a.scratch = fresh
	var out []local.Message
	if len(fresh) > 0 {
		records := make([]floodRecord, len(fresh))
		copy(records, fresh)
		out = local.Broadcast(a.info.Ports, &floodMsg{records: records})
	}
	if a.closed() {
		a.solveComponent()
		return out, true
	}
	return out, false
}

func (a *mvcAlg1Process) Output() any { return a.inS }

func (a *mvcAlg1Process) closed() bool {
	for _, rec := range a.records {
		for _, id := range rec.PartNbrs {
			if _, ok := a.records[id]; !ok {
				return false
			}
		}
	}
	return true
}

func (a *mvcAlg1Process) decide() {
	bg, ids, center := a.g.View().Graph()
	s1Cache := make(map[int]bool)
	s1At := func(v int) bool {
		if got, ok := s1Cache[v]; ok {
			return got
		}
		got := cuts.IsLocalOneCut(bg, v, a.p.R1)
		if !got {
			for _, u := range bg.Ball(v, a.p.R2) {
				if u != v && cuts.IsLocalTwoCut(bg, v, u, a.p.R2) {
					got = true
					break
				}
			}
		}
		s1Cache[v] = got
		return got
	}
	participantAt := func(v int) bool {
		if s1At(v) {
			return false
		}
		for _, u := range bg.Neighbors(v) {
			if !s1At(u) {
				return true // incident uncovered edge
			}
		}
		return false
	}
	a.inS1 = s1At(center)
	a.participant = participantAt(center)
	if !a.participant {
		return
	}
	var partNbrs []int
	for _, u := range bg.Neighbors(center) {
		if participantAt(u) {
			partNbrs = append(partNbrs, ids[u])
		}
	}
	sort.Ints(partNbrs)
	a.records = map[int]partRecord{a.info.ID: {PartNbrs: partNbrs}}
}

func (a *mvcAlg1Process) solveComponent() {
	a.inS = a.inS1 || slices.Contains(a.componentCover(), a.info.ID)
}

// componentCover returns the cover of the flooded component, as vertex
// identifiers. Every member computes the same one from the same records.
func (a *mvcAlg1Process) componentCover() []int {
	members := make([]int, 0, len(a.records))
	for id := range a.records {
		members = append(members, id)
	}
	sort.Ints(members)
	pos := make(map[int]int, len(members))
	for i, id := range members {
		pos[id] = i
	}
	comp := graph.New(len(members))
	for i, id := range members {
		for _, nbr := range a.records[id].PartNbrs {
			if j, ok := pos[nbr]; ok && i < j {
				comp.AddEdge(i, j)
			}
		}
	}
	// The same budget as MVCAlg1. Node counts are input-determined, and
	// with identity identifiers (as TestRunMVCAlg1MatchesCentralized uses)
	// members are labelled in MVCAlg1's CSR order, so both fall back on
	// the same components; other identifiers can reorder the search.
	var chosen []int
	c := comp.Freeze()
	if len(members) <= a.p.MaxBruteComponent {
		sol, err := mds.ExactMVC(c, mds.ExactOptions{MaxNodes: BruteNodeBudget})
		if err == nil {
			chosen = sol
		} else {
			chosen = mds.MatchingVertexCover(c)
		}
	} else {
		chosen = mds.MatchingVertexCover(c)
	}
	for i, v := range chosen {
		chosen[i] = members[v]
	}
	return chosen
}

// RunMVCAlg1 executes the distributed Algorithm 1 MVC variant.
func RunMVCAlg1(g *graph.Graph, ids []int, p Params, engine local.Engine) ([]int, local.Stats, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, local.Stats{}, err
	}
	return runBooleanProcess(g, ids, engine, func(int) local.Process { return NewMVCAlg1Process(p) })
}
