package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"localmds/internal/core"
)

// recorder is the traced run's span store: every call the benchmark makes
// into a layer's public functions becomes a span with name, start, end,
// parent and operation id. Spans stay in memory until the run ends, then
// go out as Chrome trace-event JSON (openable in Perfetto). Untraced
// operations never touch it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	busy  []bool // lanes held by open pool-allocated spans
}

type span struct {
	Name   string
	Op     int
	Parent int // index into spans, -1 for a root
	Lane   int
	Start  time.Duration // since epoch
	End    time.Duration
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// fixedLanes is how many lanes callers name explicitly (one per client
// goroutine); spans started with lane -1 take the lowest free lane above.
const fixedLanes = 2

// start opens a span and returns its id. lane < 0 allocates a free lane
// for a span that may overlap others (a fanned-out component solve).
func (r *recorder) start(name string, op, parent, lane int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if lane < 0 {
		lane = fixedLanes
		for lane-fixedLanes < len(r.busy) && r.busy[lane-fixedLanes] {
			lane++
		}
		if lane-fixedLanes == len(r.busy) {
			r.busy = append(r.busy, false)
		}
		r.busy[lane-fixedLanes] = true
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Lane: lane, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id]
	sp.End = now
	if sp.Lane >= fixedLanes {
		r.busy[sp.Lane-fixedLanes] = false
	}
	return sp.End - sp.Start
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps, one thread lane per concurrent caller).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for id, sp := range r.spans {
		if sp.End < 0 {
			continue
		}
		events = append(events, event{Name: sp.Name, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3, Pid: 1, Tid: sp.Lane + 1,
			Args: map[string]any{"op": sp.Op, "id": id, "parent": sp.Parent}})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// stageHooks implements core.TraceHooks for one traced solve: each
// pipeline stage and each component solve becomes a span under the
// operation's span, and the per-stage wall time and allocation plus the
// slowest component are added to the run's totals.
type stageHooks struct {
	rec    *recorder
	op     int
	parent int
	tot    *stageTotals
	stage  int // span id of the running stage; stages run sequentially

	mu      sync.Mutex
	compMax time.Duration
}

// stageTotals accumulates traced stage spans over a run.
type stageTotals struct {
	wall    map[string]time.Duration
	alloc   map[string]uint64
	compMax time.Duration // summed per-operation slowest component
	ops     int
}

func newStageTotals() *stageTotals {
	return &stageTotals{wall: map[string]time.Duration{}, alloc: map[string]uint64{}}
}

func (h *stageHooks) StageStart(name string) func(core.StageStat) {
	id := h.rec.start(name, h.op, h.parent, 0)
	h.stage = id
	a0 := allocBytes()
	return func(core.StageStat) {
		d := h.rec.end(id)
		h.tot.wall[name] += d
		h.tot.alloc[name] += allocBytes() - a0
	}
}

func (h *stageHooks) ComponentStart(index, vertices int) func(chosen int, fallback bool) {
	id := h.rec.start("component", h.op, h.stage, -1)
	return func(int, bool) {
		d := h.rec.end(id)
		h.mu.Lock()
		if d > h.compMax {
			h.compMax = d
		}
		h.mu.Unlock()
	}
}

// finish adds the operation's slowest component to the totals.
func (h *stageHooks) finish() {
	h.tot.compMax += h.compMax
	h.tot.ops++
}
