package core

import (
	"sort"

	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/local"
	"localmds/internal/mds"
)

// partRecord is one vertex's flooding record during the brute-force phase:
// its participating neighbors (identifiers) and whether it is still
// undominated after the cut phase.
type partRecord struct {
	PartNbrs    []int
	Undominated bool
}

// floodRecord is a partRecord tagged with its vertex identifier. Records
// are immutable once created and shared between every message that
// forwards them.
type floodRecord struct {
	ID  int
	Rec partRecord
}

// floodMsg carries flooding records as a flat slice.
type floodMsg struct {
	records []floodRecord
}

// alg1Process is the message-passing implementation of Algorithm 1. It
// spends GatherRadius()+2 rounds collecting its view, decides X/I/U
// membership locally, and then participants flood their residual component
// until they know it entirely, at which point every member deterministically
// solves the same brute-force instance.
type alg1Process struct {
	p            Params
	gatherRounds int
	g            local.Gatherer
	info         local.NodeInfo

	// Decision state, filled at the end of the gather phase.
	inS1        bool
	participant bool
	records     map[int]partRecord
	scratch     []floodRecord // reused per-round fresh-record buffer
	inS         bool
}

// NewAlg1Process returns the Algorithm 1 process for the given parameters.
// Outputs are booleans: membership in the returned dominating set.
func NewAlg1Process(p Params) local.Process {
	return &alg1Process{p: p, gatherRounds: p.GatherRadius() + 2}
}

func (a *alg1Process) Init(info local.NodeInfo) {
	a.info = info
	a.g.Init(info)
}

func (a *alg1Process) Round(round int, inbox []local.Message) ([]local.Message, bool) {
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
	// Flooding phase (participants only).
	fresh := a.scratch[:0]
	if round == a.gatherRounds+1 {
		// Seed with the own record (the only one present after decide).
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

func (a *alg1Process) Output() any { return a.inS }

// decide computes, from the gathered view, whether this vertex is a twin
// representative, in X or I, in U, and — if it participates in the
// brute-force phase — its flooding record.
func (a *alg1Process) decide() {
	view := a.g.View()
	bg, ids, center := view.Graph()
	dist := bg.BFSFrom(center)

	// kept[i]: vertex i survives the one-shot true-twin reduction (is the
	// minimum-identifier member of its class). Only trustworthy for
	// vertices whose distance-2 ball is fully known; all uses below stay
	// within that horizon.
	kept := make([]bool, bg.N())
	for i := 0; i < bg.N(); i++ {
		kept[i] = a.keptLocally(bg, ids, i)
	}
	var keptVerts []int
	for i, k := range kept {
		if k {
			keptVerts = append(keptVerts, i)
		}
	}
	rg, ridx := bg.Induced(keptVerts)
	rg.Freeze() // read-only from here on; decisions traverse it heavily
	rpos := make(map[int]int, len(ridx))
	for i, v := range ridx {
		rpos[v] = i
	}

	if !kept[center] {
		a.participant = false
		a.inS1 = false
		return
	}
	rcenter := rpos[center]

	// s1At decides X/I membership of reduced vertex rv (valid when its
	// decision ball is inside the view).
	s1Cache := make(map[int]bool)
	s1At := func(rv int) bool {
		if got, ok := s1Cache[rv]; ok {
			return got
		}
		got := a.s1Decision(rg, rv)
		s1Cache[rv] = got
		return got
	}

	a.inS1 = s1At(rcenter)
	dominatedAt := func(rv int) bool {
		for _, u := range rg.Ball(rv, 1) {
			if s1At(u) {
				return true
			}
		}
		return false
	}
	inUAt := func(rv int) bool {
		if s1At(rv) || !dominatedAt(rv) {
			return false
		}
		for _, u := range rg.Neighbors(rv) {
			if !dominatedAt(u) {
				return false
			}
		}
		return true
	}
	participantAt := func(rv int) bool {
		return !s1At(rv) && !inUAt(rv)
	}

	a.participant = participantAt(rcenter)
	if !a.participant {
		return
	}
	// Build the own flooding record: participating reduced neighbors
	// (their decisions need the +3 view margin) and own domination status.
	var partNbrs []int
	for _, u := range rg.Neighbors(rcenter) {
		if dist[ridx[u]] != 1 {
			continue // reduced adjacency must be a real G edge to flood over
		}
		if participantAt(u) {
			partNbrs = append(partNbrs, ids[ridx[u]])
		}
	}
	sort.Ints(partNbrs)
	a.records = map[int]partRecord{
		a.info.ID: {PartNbrs: partNbrs, Undominated: !dominatedAt(rcenter)},
	}
}

// keptLocally decides the one-shot twin reduction for view vertex i: kept
// iff its identifier is minimal in its true-twin class.
func (a *alg1Process) keptLocally(bg *graph.Graph, ids []int, i int) bool {
	ni := bg.ClosedNeighborhood(i)
	for _, j := range bg.Neighbors(i) {
		if ids[j] >= ids[i] {
			continue
		}
		nj := bg.ClosedNeighborhood(j)
		if graph.EqualSets(ni, nj) {
			return false
		}
	}
	return true
}

// s1Decision reports whether reduced vertex rv is in X ∪ I: an R1-local
// minimal 1-cut or an R2-interesting vertex of an R2-local minimal 2-cut of
// the reduced graph.
func (a *alg1Process) s1Decision(rg *graph.Graph, rv int) bool {
	if cuts.IsLocalOneCut(rg, rv, a.p.R1) {
		return true
	}
	for _, u := range rg.Ball(rv, a.p.R2) {
		if u == rv {
			continue
		}
		if cuts.IsLocallyInteresting(rg, rv, u, a.p.R2) {
			return true
		}
	}
	return false
}

// closed reports whether the flooding knowledge covers the whole residual
// component: every known record's participating neighbors are known.
func (a *alg1Process) closed() bool {
	for _, rec := range a.records {
		for _, id := range rec.PartNbrs {
			if _, ok := a.records[id]; !ok {
				return false
			}
		}
	}
	return true
}

// solveComponent deterministically solves the brute-force instance shared
// by all members of the residual component and records whether this vertex
// is selected.
func (a *alg1Process) solveComponent() {
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
	var target []int
	for i, id := range members {
		rec := a.records[id]
		if rec.Undominated {
			target = append(target, i)
		}
		for _, nbr := range rec.PartNbrs {
			if j, ok := pos[nbr]; ok && i < j {
				comp.AddEdge(i, j)
			}
		}
	}
	var chosen []int
	c := comp.Freeze()
	if len(members) <= a.p.MaxBruteComponent {
		// Same budget as the centralized call sites, so the distributed
		// run falls back on exactly the components they do.
		sol, err := mds.ExactBDominating(c, target, mds.ExactOptions{MaxNodes: BruteNodeBudget})
		if err == nil {
			chosen = sol
		} else {
			chosen = mds.GreedyBDominatingCSR(c, target)
		}
	} else {
		chosen = mds.GreedyBDominatingCSR(c, target)
	}
	me := pos[a.info.ID]
	for _, v := range chosen {
		if v == me {
			a.inS = true
		}
	}
	a.inS = a.inS || a.inS1
}

// RunAlg1 executes the distributed Algorithm 1 on g with identifier
// assignment ids (nil for identity) and returns the dominating set, the
// run statistics, and any simulator error.
func RunAlg1(g *graph.Graph, ids []int, p Params, engine local.Engine) ([]int, local.Stats, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, local.Stats{}, err
	}
	nw, err := local.NewNetwork(g, ids)
	if err != nil {
		return nil, local.Stats{}, err
	}
	res, err := nw.Run(engine, func(int) local.Process { return NewAlg1Process(p) }, 0)
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
