// Package local implements the LOCAL model of distributed computing
// (Linial): a synchronous network where, in each round, every vertex
// exchanges messages of unbounded size with its neighbors and performs
// arbitrary local computation. The package provides a Network simulator,
// which fans each round out through graph.ParallelFor at GOMAXPROCS
// workers and gives the same outputs and Stats at any GOMAXPROCS, plus the
// ball-gathering protocol that underlies all the paper's algorithms (after
// r rounds every vertex knows its radius-(r-1) ball with full adjacency).
//
// Knowledge model (KT0): a process initially knows only its own identifier
// and its number of ports; neighbor identifiers must be learned by
// exchanging messages, which is why e.g. the folklore tree algorithm costs
// 2 rounds rather than 1 (footnote 3 of the paper).
package local

import (
	"fmt"
	"runtime"

	"localmds/internal/graph"
)

// Message is an arbitrary payload exchanged between neighbors in one round.
// Messages must be treated as immutable once sent: the simulator delivers
// the same value to the recipient without copying.
type Message any

// NodeInfo is the static information a process receives before round 1.
type NodeInfo struct {
	// ID is the vertex's globally unique identifier (O(log n) bits in the
	// model; any distinct ints here).
	ID int
	// Ports is the number of incident edges. Port i of this vertex is
	// connected to some port of the i-th neighbor; processes do not know
	// which vertex that is until told via a message.
	Ports int
	// N is the number of vertices in the network, which the LOCAL model
	// typically grants as global knowledge.
	N int
}

// Process is the per-vertex algorithm. Round is called once per round with
// the messages received on each port (nil for silent ports) and returns the
// messages to send on each port (a slice of length <= Ports; nil entries
// are silent) plus a halt flag. After halting, Round is not called again
// and the vertex neither sends nor receives. The inbox slice is owned by
// the simulator and is only valid for the duration of the call.
type Process interface {
	Init(info NodeInfo)
	Round(round int, inbox []Message) (outbox []Message, halt bool)
	Output() any
}

// Factory builds the process for the given vertex index. Algorithms that
// need per-vertex parameters close over them.
type Factory func(vertex int) Process

// Network couples a frozen graph with an identifier assignment. The
// message fabric is wired once at construction time, so repeated runs
// over the same network pay the wiring cost once.
type Network struct {
	c   *graph.CSR
	ids []int
	// revSlot[k] is the inbox slot arc k fills: for arc k = (v -> u),
	// revSlot[k] = c.Offsets[u] + (port of u that leads back to v). All
	// round state (inbox, outbox) lives in flat arrays indexed by arc, so
	// a run allocates its buffers once and reuses them every round.
	revSlot []int32
}

// NewNetwork creates a network over c with identifiers ids (one per
// vertex, all distinct). Pass nil for the identity assignment.
func NewNetwork(c *graph.CSR, ids []int) (*Network, error) {
	n := c.N()
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	if len(ids) != n {
		return nil, fmt.Errorf("local: %d ids for %d vertices", len(ids), n)
	}
	seen := make(map[int]bool, n)
	for _, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("local: duplicate id %d", id)
		}
		seen[id] = true
	}
	return &Network{c: c, ids: ids, revSlot: reverseSlots(c)}, nil
}

// Stats reports the cost of a run.
type Stats struct {
	Rounds   int
	Messages int64 // total messages delivered over all rounds
	// Words is the total delivered payload in machine words (see Sizer);
	// MaxMessageWords the largest single message. The LOCAL model allows
	// unbounded messages; these fields quantify how far a protocol
	// actually strays beyond CONGEST's O(log n)-bit limit.
	Words           int64
	MaxMessageWords int
}

// Result is the outcome of a run: per-vertex outputs plus cost statistics.
type Result struct {
	Outputs []any
	Stats   Stats
}

// DefaultMaxRounds caps runaway protocols; Run returns an error beyond it.
const DefaultMaxRounds = 1 << 20

// reverseSlots computes every arc's receive slot. Adjacency rows are
// sorted, so the reverse ports come out of a single counting pass over the
// arcs: scanning sources in increasing order means each target's in-arcs
// arrive in exactly its adjacency order.
func reverseSlots(c *graph.CSR) []int32 {
	rev := make([]int32, len(c.Targets))
	ptr := make([]int32, c.N())
	for v := 0; v < c.N(); v++ {
		for k := c.Offsets[v]; k < c.Offsets[v+1]; k++ {
			u := c.Targets[k]
			rev[k] = c.Offsets[u] + ptr[u]
			ptr[u]++
		}
	}
	return rev
}

// Run executes the protocol until every vertex halts and returns outputs
// and statistics. maxRounds <= 0 selects DefaultMaxRounds. The compute
// phase of each round runs over GOMAXPROCS workers with graph.ParallelFor,
// in chunks of the active-vertex list, and joins them before the delivery
// phase; a deterministic protocol gets the same outputs and Stats at any
// GOMAXPROCS.
func (nw *Network) Run(factory Factory, maxRounds int) (*Result, error) {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	n := nw.c.N()
	offsets, targets := nw.c.Offsets, nw.c.Targets
	procs := make([]Process, n)
	for v := 0; v < n; v++ {
		procs[v] = factory(v)
		procs[v].Init(NodeInfo{ID: nw.ids[v], Ports: nw.c.Degree(v), N: n})
	}
	halted := make([]bool, n)
	// inbox[offsets[v]+p]: message arriving at v on port p this round.
	inbox := make([]Message, len(targets))
	outboxes := make([][]Message, n)
	// active lists the non-halted vertices in ascending order; compute and
	// delivery iterate it so halted vertices cost nothing.
	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}

	workers := runtime.GOMAXPROCS(0)
	var stats Stats
	for round := 1; len(active) > 0; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("local: exceeded %d rounds without global halt", maxRounds)
		}
		stats.Rounds = round
		// Compute phase. Each index writes only its own vertex's outbox and
		// halt slot. Chunks aim for a few per worker, but never so small
		// that claiming them dominates the per-vertex work.
		chunk := max(16, (len(active)+4*workers-1)/(4*workers))
		graph.ParallelFor(len(active), workers, chunk, func(int) func(int) {
			return func(i int) {
				v := active[i]
				out, halt := procs[v].Round(round, inbox[offsets[v]:offsets[v+1]])
				outboxes[v] = out
				if halt {
					halted[v] = true
				}
			}
		})
		// Clear the receive slots of every vertex still able to receive,
		// then deliver. Vertices halted before this round are not in
		// active; slots of vertices that halted this round are never read
		// again, so skipping them is safe.
		for _, v := range active {
			if halted[v] {
				continue
			}
			in := inbox[offsets[v]:offsets[v+1]]
			for p := range in {
				in[p] = nil
			}
		}
		// Deliver phase, in ascending vertex order for deterministic stats.
		for _, v := range active {
			out := outboxes[v]
			if out == nil {
				continue
			}
			deg := nw.c.Degree(int(v))
			if len(out) > deg {
				return nil, fmt.Errorf("local: vertex %d sent on %d ports but has %d", v, len(out), deg)
			}
			base := offsets[v]
			for i, msg := range out {
				if msg == nil {
					continue
				}
				k := base + int32(i)
				u := targets[k]
				if halted[u] {
					continue // dropped: recipient already halted
				}
				size := messageSize(msg)
				inbox[nw.revSlot[k]] = msg
				stats.Messages++
				stats.Words += int64(size)
				if size > stats.MaxMessageWords {
					stats.MaxMessageWords = size
				}
			}
			outboxes[v] = nil
		}
		// Compact the active list in place, preserving order.
		live := active[:0]
		for _, v := range active {
			if !halted[v] {
				live = append(live, v)
			}
		}
		active = live
	}
	outputs := make([]any, n)
	for v := 0; v < n; v++ {
		outputs[v] = procs[v].Output()
	}
	return &Result{Outputs: outputs, Stats: stats}, nil
}

// Broadcast builds an outbox sending msg on every one of ports ports.
func Broadcast(ports int, msg Message) []Message {
	out := make([]Message, ports)
	for i := range out {
		out[i] = msg
	}
	return out
}
