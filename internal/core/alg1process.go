package core

import (
	"encoding/binary"
	"maps"
	"slices"
	"sync"

	"localmds/internal/cuts"
	"localmds/internal/graph"
	"localmds/internal/local"
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

// floodRule is the per-problem part of floodProcess: Algorithm 1's
// dominating-set form (mdsFlood) or its vertex-cover variant (mvcFlood).
type floodRule interface {
	// decide runs the centralized driver's CSR steps up to Partition on
	// the view c and reads the answer at view vertex center: whether it
	// is in S1, and, when it joins a residual component instead, its
	// flood record, with PartNbrs as view indices.
	decide(c *graph.CSR, center int) (inS1 bool, rec *partRecord)
	// solve is the problem's component-solve dispatch (the one the
	// centralized driver runs) on a flooded component; target lists its
	// undominated members.
	solve(sub *graph.CSR, target []int) []int
}

// floodProcess is the message-passing Algorithm 1, for either rule. It
// spends gatherRounds rounds collecting its view and decides there by
// running the centralized CSR steps on the view; then participants flood
// their residual component until they know it entirely, at which point
// every member deterministically solves the same instance.
type floodProcess struct {
	rule         floodRule
	gatherRounds int
	g            local.Gatherer
	info         local.NodeInfo

	records map[int]partRecord // flooded so far, participants only
	scratch []floodRecord      // reused per-round fresh-record buffer
	inS     bool
	memo    *solveMemo // shared by one run's processes
}

// solveMemo shares component solves among the processes of one run.
// Residual components are disjoint and every member floods the same
// immutable records, so a component's sorted member identifiers name its
// instance: the first member to close solves it, and the others read the
// picks. The per-key sync.Once makes members that close in the same
// round on different workers wait for that one solve.
type solveMemo struct {
	mu    sync.Mutex
	byKey map[string]*memoEntry
}

type memoEntry struct {
	once  sync.Once
	picks []int
}

// do returns solve's picks for the component of the given sorted
// members, calling solve once per component across the run. The
// returned slice is shared: callers only read it.
func (m *solveMemo) do(members []int, solve func() []int) []int {
	key := make([]byte, 0, 4*len(members))
	for _, id := range members {
		key = binary.AppendVarint(key, int64(id))
	}
	m.mu.Lock()
	e := m.byKey[string(key)]
	if e == nil {
		e = &memoEntry{}
		m.byKey[string(key)] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.picks = solve() })
	return e.picks
}

// runFlood runs the flood process of rule on c. Its processes share one
// solveMemo, so each residual component is solved once per run rather
// than once per member.
func runFlood(c *graph.CSR, ids []int, rule floodRule, gatherRounds int) ([]int, local.Stats, error) {
	memo := &solveMemo{byKey: make(map[string]*memoEntry)}
	return runBooleanProcess(c, ids, func(int) local.Process {
		return &floodProcess{rule: rule, gatherRounds: gatherRounds, memo: memo}
	})
}

func (a *floodProcess) Init(info local.NodeInfo) {
	a.info = info
	a.g.Init(info)
}

func (a *floodProcess) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	if round <= a.gatherRounds {
		out := a.g.Step(round, inbox)
		if round < a.gatherRounds {
			return out, false
		}
		c, ids, center := a.g.View().CSR()
		inS1, rec := a.rule.decide(c, center)
		if rec == nil {
			a.inS = inS1
			return out, true
		}
		for i, v := range rec.PartNbrs {
			rec.PartNbrs[i] = ids[v]
		}
		a.records = map[int]partRecord{a.info.ID: *rec}
		return out, false
	}
	// Flooding phase (participants only).
	fresh := a.scratch[:0]
	if round == a.gatherRounds+1 {
		// Seed with the own record, the only one present after decide.
		fresh = append(fresh, floodRecord{ID: a.info.ID, Rec: a.records[a.info.ID]})
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
		a.inS = slices.Contains(a.componentPicks(), a.info.ID)
		return out, true
	}
	return out, false
}

func (a *floodProcess) Output() any { return a.inS }

// closed reports whether the flooding knowledge covers the whole residual
// component: every known record's participating neighbors are known.
func (a *floodProcess) closed() bool {
	//mdsvet:ignore mapiter -- a ∀ scan: every early exit returns false, so visit order cannot change the answer
	for _, rec := range a.records {
		for _, id := range rec.PartNbrs {
			if _, ok := a.records[id]; !ok {
				return false
			}
		}
	}
	return true
}

// componentPicks solves the flooded component with the rule's dispatch and
// returns the picks as identifiers. Every member computes the same set
// from the same records (the run's memo lets one of them compute it for
// all); with identity identifiers the members are labelled in the
// centralized driver's order, so both solve the same instance and fall
// back on the same components.
func (a *floodProcess) componentPicks() []int {
	members := slices.Sorted(maps.Keys(a.records))
	return a.memo.do(members, func() []int { return a.solveComponent(members) })
}

// solveComponent runs the rule's solve on the component of the given
// sorted members.
func (a *floodProcess) solveComponent(members []int) []int {
	pos := make(map[int]int, len(members))
	for i, id := range members {
		pos[id] = i
	}
	var edges [][2]int
	var target []int
	for i, id := range members {
		rec := a.records[id]
		if rec.Undominated {
			target = append(target, i)
		}
		for _, nbr := range rec.PartNbrs {
			if j, ok := pos[nbr]; ok && i < j {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	chosen := a.rule.solve(graph.CSRFromEdges(len(members), edges), target)
	for i, v := range chosen {
		chosen[i] = members[v]
	}
	return chosen
}

// residualRecord is the flood record of residual vertex v of c: its
// residual neighbors, mapped to view indices by label.
func residualRecord(c *graph.CSR, v int, rest []int32, label func(int) int, undominated bool) *partRecord {
	var nbrs []int
	for _, u := range c.Row(v) {
		if _, ok := slices.BinarySearch(rest, u); ok {
			nbrs = append(nbrs, label(int(u)))
		}
	}
	return &partRecord{PartNbrs: nbrs, Undominated: undominated}
}

// mdsFlood is Algorithm 1's dominating-set rule: Alg1CSR's TwinReduce,
// Cuts and Partition on the view.
type mdsFlood struct{ p Params }

func (r mdsFlood) decide(c *graph.CSR, center int) (bool, *partRecord) {
	rc, active := graph.TwinReduceCSR(c)
	v, kept := slices.BinarySearch(active, center)
	if !kept {
		return false, nil
	}
	x, i := cuts.LocalCutsWorkers(rc, r.p.R1, r.p.R2, 1, graph.NewArena())
	s1 := graph.SortedUnion(x, i)
	dominated, _, rest := partitionResidual(rc, s1)
	if _, ok := slices.BinarySearch(rest, int32(v)); !ok {
		return graph.SortedContains(s1, v), nil
	}
	return false, residualRecord(rc, v, rest, func(u int) int { return active[u] }, !dominated[v])
}

func (r mdsFlood) solve(sub *graph.CSR, target []int) []int {
	chosen, _ := solveMDSComponent(sub, target, r.p)
	return chosen
}

// RunAlg1 executes the distributed Algorithm 1 on c with identifier
// assignment ids (nil for identity) and returns the dominating set, the
// run statistics, and any simulator error.
func RunAlg1(c *graph.CSR, ids []int, p Params) ([]int, local.Stats, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, local.Stats{}, err
	}
	return runFlood(c, ids, mdsFlood{p}, p.GatherRadius()+2)
}
