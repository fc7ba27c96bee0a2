package core

import (
	"localmds/internal/graph"
	"localmds/internal/local"
)

// TreeMDS is the folklore 3-approximation for MDS on trees (Table 1, first
// row): with at least three vertices, take every vertex of degree at least
// two. The centralized reference also handles the degenerate sizes (n <= 2)
// the folklore statement assumes away.
func TreeMDS(c *graph.CSR) []int {
	switch c.N() {
	case 0:
		return nil
	case 1:
		return []int{0}
	}
	var s []int
	for v := 0; v < c.N(); v++ {
		switch {
		case c.Degree(v) >= 2:
			s = append(s, v)
		case c.Degree(v) == 0:
			s = append(s, v) // isolated vertices must self-dominate
		case c.N() == 2 && v == 0:
			s = append(s, v) // a single edge: take the smaller endpoint
		}
	}
	// Two-vertex components (an edge both of whose endpoints have degree
	// one) need one endpoint: take the smaller.
	for v := 0; v < c.N(); v++ {
		if c.Degree(v) == 1 {
			u := int(c.Row(v)[0])
			if c.Degree(u) == 1 && v < u && !graph.SortedContains(s, v) {
				s = graph.SortedUnion(s, []int{v})
			}
		}
	}
	return s
}

// treeMDSProcess is the 2-round distributed tree algorithm: round 1
// announce your identifier; round 2 count the announcements (your degree)
// and decide. Matching footnote 3 of the paper, the two rounds come from
// vertices not knowing their degree initially.
type treeMDSProcess struct {
	info local.NodeInfo
	inS  bool
}

// NewTreeMDSProcess returns the folklore tree process (boolean outputs).
func NewTreeMDSProcess() local.Process { return &treeMDSProcess{} }

func (p *treeMDSProcess) Init(info local.NodeInfo) { p.info = info }

func (p *treeMDSProcess) Round(round int, inbox []local.Message) ([]local.Message, bool) {
	if round == 1 {
		if p.info.Ports == 0 {
			p.inS = true // isolated: dominate yourself, done
			return nil, true
		}
		return local.Broadcast(p.info.Ports, p.info.ID), false
	}
	deg := 0
	minNbr := -1
	for _, m := range inbox {
		if id, ok := m.(int); ok {
			deg++
			if minNbr < 0 || id < minNbr {
				minNbr = id
			}
		}
	}
	switch {
	case deg >= 2:
		p.inS = true
	case deg == 1:
		// Leaf: join only if the single neighbor is also a leaf-like
		// two-vertex component; detectable when N == 2.
		p.inS = p.info.N == 2 && p.info.ID < minNbr
	}
	return nil, true
}

func (p *treeMDSProcess) Output() any { return p.inS }

// RunTreeMDS executes the distributed tree algorithm.
func RunTreeMDS(c *graph.CSR, ids []int, engine local.Engine) ([]int, local.Stats, error) {
	return runBooleanProcess(c, ids, engine, func(int) local.Process { return NewTreeMDSProcess() })
}

// TakeAllMDS is the folklore K_{1,t}-minor-free row of Table 1: return
// every vertex. On graphs of maximum degree Δ <= t-1 this is a 0-round
// t-approximation, since any dominating set has size at least n/(Δ+1).
func TakeAllMDS(c *graph.CSR) []int {
	all := make([]int, c.N())
	for i := range all {
		all[i] = i
	}
	return all
}

// RegularMVC is the 0-round 2-approximation for vertex cover on regular
// graphs (§1): take every non-isolated vertex.
func RegularMVC(c *graph.CSR) []int {
	var s []int
	for v := 0; v < c.N(); v++ {
		if c.Degree(v) > 0 {
			s = append(s, v)
		}
	}
	return s
}

// runBooleanProcess runs a boolean-output protocol and collects the chosen
// vertex set.
func runBooleanProcess(c *graph.CSR, ids []int, engine local.Engine, factory local.Factory) ([]int, local.Stats, error) {
	nw, err := local.NewNetwork(c, ids)
	if err != nil {
		return nil, local.Stats{}, err
	}
	res, err := nw.Run(engine, factory, 0)
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
