package local

import (
	"sort"

	"localmds/internal/graph"
)

// View is the knowledge a vertex has accumulated about its neighborhood:
// adjacency lists keyed by identifier. After r rounds of the gathering
// protocol a vertex knows the identifiers of every vertex at distance <= r
// and the full adjacency list of every vertex at distance <= r-1.
type View struct {
	CenterID int
	// Adj maps a known vertex's identifier to its full adjacency list
	// (sorted identifiers). Vertices that are known to exist but whose
	// adjacency has not arrived yet are absent from Adj but may appear
	// inside other adjacency lists.
	Adj map[int][]int
}

// KnownIDs returns every identifier present in the view (as an adjacency
// key or inside a list), sorted.
func (v *View) KnownIDs() []int {
	set := map[int]bool{v.CenterID: true}
	for id, nbrs := range v.Adj {
		set[id] = true
		for _, u := range nbrs {
			set[u] = true
		}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Graph materializes the view's resolved portion as a graph.Graph: the
// vertices with known adjacency plus the frontier vertices referenced by
// them, with every known edge. It returns the graph, the sorted identifier
// slice mapping local index -> identifier, and the center's local index.
// The graph is batch-built (FromEdgesUnchecked collapses the duplicates
// arising from both endpoints reporting an edge), avoiding the per-edge
// HasEdge/AddEdge cost this path used to pay.
func (v *View) Graph() (*graph.Graph, []int, int) {
	ids := v.KnownIDs()
	index := make(map[int]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	total := 0
	for _, nbrs := range v.Adj {
		total += len(nbrs)
	}
	edges := make([][2]int, 0, total)
	for id, nbrs := range v.Adj {
		a := index[id]
		for _, u := range nbrs {
			if b := index[u]; a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	g := graph.FromEdgesUnchecked(len(ids), edges)
	// View graphs are traversal-heavy and never mutated: freeze them so
	// the many Ball/BFS calls the deciders run take the CSR fast path.
	g.Freeze()
	return g, ids, index[v.CenterID]
}

// gatherRecord is one adjacency fact: a vertex identifier and its full
// neighbor list. The nbrs slice is immutable and shared by every copy of
// the record as it floods outward — forwarding never copies it.
type gatherRecord struct {
	id   int
	nbrs []int
}

// gatherMsg carries a batch of adjacency facts as a flat record slice.
type gatherMsg struct {
	records []gatherRecord
}

// Gatherer is the reusable core of the ball-gathering protocol: in round 1
// the vertex announces its identifier; in round 2 its (now known) adjacency
// list; from then on it forwards every record it has not seen before.
// Algorithms embed a Gatherer for their knowledge-collection phase and
// read the accumulated View afterwards.
//
// Forwarding is allocation-free in steady state: the outbox backing array
// is reused every round, and outgoing messages alternate between two
// embedded gatherMsg buffers. The double buffer is safe because a message
// sent in round r is only read during the compute phase of round r+1,
// strictly before the sender's round r+2 overwrites that buffer (the
// simulator runs one barrier per round).
type Gatherer struct {
	info   NodeInfo
	nbrIDs []int // learned in round 1, indexed by port
	adj    map[int][]int
	outBuf []Message    // reused outbox backing array
	ownBuf []int        // optional preallocated space for the own record
	msgBuf [2]gatherMsg // double-buffered outgoing messages
}

// adjMapHint caps the initial sizing of the per-vertex adjacency map: large
// enough that typical bounded-radius balls never rehash, small enough that
// an n-vertex run does not reserve O(n) space per vertex up front.
const adjMapHint = 64

// recordBufCap is the record capacity GatherViews preallocates per message
// buffer: bounded-radius gathers rarely forward more records in one round.
const recordBufCap = 32

// Init prepares the gatherer for a run. Buffers already seeded with enough
// capacity (see the arena in GatherViews) are reused instead of
// reallocated; a zero-value Gatherer allocates its own.
func (p *Gatherer) Init(info NodeInfo) {
	p.info = info
	if cap(p.nbrIDs) >= info.Ports {
		p.nbrIDs = p.nbrIDs[:info.Ports]
	} else {
		p.nbrIDs = make([]int, info.Ports)
	}
	for i := range p.nbrIDs {
		p.nbrIDs[i] = -1
	}
	hint := adjMapHint
	if info.N < hint {
		hint = info.N
	}
	p.adj = make(map[int][]int, hint)
	if cap(p.outBuf) >= info.Ports {
		p.outBuf = p.outBuf[:info.Ports]
	} else {
		p.outBuf = make([]Message, info.Ports)
	}
	p.msgBuf[0].records = p.msgBuf[0].records[:0]
	p.msgBuf[1].records = p.msgBuf[1].records[:0]
}

// ensureRecordCap grows a message buffer to its working capacity exactly
// once, on first use, so the per-round appends never reallocate from a
// tiny capacity upward.
func (p *Gatherer) ensureRecordCap(msg *gatherMsg) {
	if cap(msg.records) < recordBufCap {
		msg.records = make([]gatherRecord, 0, recordBufCap)
	}
}

// broadcast fills the reused outbox with msg on every port.
func (p *Gatherer) broadcast(msg Message) []Message {
	for i := range p.outBuf {
		p.outBuf[i] = msg
	}
	return p.outBuf
}

// Step executes one protocol round and returns the outbox for it. The
// returned slice and its messages are owned by the gatherer and remain
// valid only through the next round's delivery, which is exactly the
// simulator's contract.
func (p *Gatherer) Step(round int, inbox []Message) []Message {
	switch round {
	case 1:
		// Announce own identifier.
		return p.broadcast(p.info.ID)
	case 2:
		// Learn neighbor identifiers; record and announce own adjacency.
		for port, m := range inbox {
			if id, ok := m.(int); ok {
				p.nbrIDs[port] = id
			}
		}
		var own []int
		if cap(p.ownBuf) >= len(p.nbrIDs) {
			// The own record outlives the run inside View.Adj, so the
			// preallocated space is consumed exactly once.
			own = p.ownBuf[:len(p.nbrIDs)]
			p.ownBuf = nil
			copy(own, p.nbrIDs)
		} else {
			own = append([]int(nil), p.nbrIDs...)
		}
		sort.Ints(own)
		p.adj[p.info.ID] = own
		msg := &p.msgBuf[round&1]
		p.ensureRecordCap(msg)
		msg.records = append(msg.records[:0], gatherRecord{id: p.info.ID, nbrs: own})
		return p.broadcast(msg)
	default:
		// Merge incoming records; forward the ones that are new to us. The
		// buffer keeps its capacity across rounds, so the appends below
		// are allocation-free once it has grown to the round's
		// fresh-record high-water mark.
		msg := &p.msgBuf[round&1]
		p.ensureRecordCap(msg)
		fresh := msg.records[:0]
		for _, m := range inbox {
			gm, ok := m.(*gatherMsg)
			if !ok {
				continue
			}
			for _, rec := range gm.records {
				if _, known := p.adj[rec.id]; !known {
					p.adj[rec.id] = rec.nbrs
					fresh = append(fresh, rec)
				}
			}
		}
		msg.records = fresh
		if len(fresh) == 0 {
			return nil
		}
		return p.broadcast(msg)
	}
}

// NeighborIDs returns the identifiers behind each port (valid after
// round 2).
func (p *Gatherer) NeighborIDs() []int { return p.nbrIDs }

// View returns the accumulated knowledge.
func (p *Gatherer) View() *View {
	return &View{CenterID: p.info.ID, Adj: p.adj}
}

// gatherProcess runs a Gatherer for a fixed number of rounds.
type gatherProcess struct {
	rounds int
	g      Gatherer
}

func (p *gatherProcess) Init(info NodeInfo) { p.g.Init(info) }

func (p *gatherProcess) Round(round int, inbox []Message) ([]Message, bool) {
	out := p.g.Step(round, inbox)
	return out, round >= p.rounds
}

func (p *gatherProcess) Output() any { return p.g.View() }

// GatherViews runs rounds rounds of the gathering protocol on the network
// and returns the per-vertex views plus run statistics. After r rounds,
// view v contains the adjacency of every vertex at distance <= r-2 from v
// and the identifiers of every vertex at distance <= r-1 (records travel
// one hop per round starting in round 2).
//
// The processes for all n vertices are carved out of one slab, with their
// port-indexed buffers (neighbor ids, own-record space, outbox) sliced out
// of shared arrays sized by the total degree — a handful of allocations
// for the whole network instead of several per vertex.
func GatherViews(nw *Network, rounds int, engine Engine) ([]*View, Stats, error) {
	n := nw.g.N()
	offsets := nw.wires.offsets
	total := int(offsets[n])
	procs := make([]gatherProcess, n)
	ints := make([]int, 2*total) // first half: nbrIDs; second half: own records
	msgs := make([]Message, total)
	// Record buffers come from a slab too: every vertex grows both of its
	// message buffers to recordBufCap anyway (ensureRecordCap), and one
	// contiguous allocation beats 2n separate ones on both alloc count and
	// bytes (measured on BenchmarkSimulatorBallGatherLarge).
	recs := make([]gatherRecord, 2*recordBufCap*n)
	for v := 0; v < n; v++ {
		lo, hi := int(offsets[v]), int(offsets[v+1])
		g := &procs[v].g
		procs[v].rounds = rounds
		g.nbrIDs = ints[lo:hi:hi]
		g.ownBuf = ints[total+lo : total+hi : total+hi]
		g.outBuf = msgs[lo:hi:hi]
		r0 := 2 * recordBufCap * v
		g.msgBuf[0].records = recs[r0 : r0 : r0+recordBufCap]
		g.msgBuf[1].records = recs[r0+recordBufCap : r0+recordBufCap : r0+2*recordBufCap]
	}
	res, err := nw.Run(engine, func(v int) Process { return &procs[v] }, rounds+1)
	if err != nil {
		return nil, Stats{}, err
	}
	views := make([]*View, len(res.Outputs))
	for i, out := range res.Outputs {
		views[i] = out.(*View)
	}
	return views, res.Stats, nil
}
