package core

import (
	"fmt"

	"localmds/internal/obs"
)

// TraceHooks receives span lifecycle callbacks from the staged drivers
// (Alg1CSR and MVCAlg1). A nil hooks field disables tracing with zero overhead — the
// driver only ever tests the interface against nil, so deterministic
// output and the committed BENCH numbers are untouched.
//
// Implementations must be safe for concurrent ComponentStart calls: the
// component solves fan out across workers.
type TraceHooks interface {
	// StageStart marks the beginning of the named pipeline stage. The
	// returned func is called exactly once when the stage completes, with
	// the recorded diagnostics.
	StageStart(name string) func(StageStat)
	// ComponentStart marks the beginning of one residual component's
	// solve (component index and vertex count). The returned func is
	// called when the component completes: chosen is the number of
	// picked vertices, fallback whether the exact solve fell back (to the
	// greedy dominating set or the matching cover).
	ComponentStart(index, vertices int) func(chosen int, fallback bool)
}

// spanHooks adapts an obs span tree to TraceHooks: each stage becomes a
// child span of the driver span, and each component solve a child of its
// ComponentSolve stage span.
type spanHooks struct {
	parent *obs.Span
	stage  *obs.Span // current stage span; guarded by stage sequencing
}

// SpanHooks returns TraceHooks that record each pipeline stage — and
// each component solve under its ComponentSolve stage — as child spans
// of parent. A nil parent returns nil hooks (tracing off), so callers
// can pass the result straight into PipelineOptions.
func SpanHooks(parent *obs.Span) TraceHooks {
	if parent == nil {
		return nil
	}
	return &spanHooks{parent: parent}
}

func (h *spanHooks) StageStart(name string) func(StageStat) {
	sp := h.parent.StartChild(name)
	// Stages run sequentially in the driver goroutine, so publishing the
	// current stage span for ComponentStart needs no lock.
	h.stage = sp
	return func(stat StageStat) {
		sp.SetAttr("items", fmt.Sprintf("%d %s", stat.Items, stat.Unit))
		sp.SetAttr("allocs", stat.Allocs)
		sp.End()
	}
}

func (h *spanHooks) ComponentStart(index, vertices int) func(chosen int, fallback bool) {
	parent := h.stage
	if parent == nil {
		parent = h.parent
	}
	sp := parent.StartChild(fmt.Sprintf("component %d", index))
	sp.SetAttr("vertices", vertices)
	return func(chosen int, fallback bool) {
		sp.SetAttr("chosen", chosen)
		if fallback {
			sp.SetAttr("fallback", "greedy")
		}
		sp.End()
	}
}
