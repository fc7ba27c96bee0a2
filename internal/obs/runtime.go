package obs

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// RuntimeSnapshot is one read of the process-level gauges served on
// /metrics next to the service counters.
type RuntimeSnapshot struct {
	// Goroutines is runtime.NumGoroutine.
	Goroutines int
	// HeapBytes is the live heap (/memory/classes/heap/objects:bytes).
	HeapBytes uint64
	// GCPauseTotal is the cumulative stop-the-world pause time.
	GCPauseTotal time.Duration
	// GCCycles is the completed GC cycle count.
	GCCycles uint64
}

// runtimeMetrics are the runtime/metrics samples SampleRuntime reads;
// reading them does not stop the world.
var runtimeMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/pauses:seconds",
	"/gc/cycles/total:gc-cycles",
}

// SampleRuntime reads the gauges now: three runtime/metrics reads and
// runtime.NumGoroutine, cheap enough to run on every /metrics scrape.
func SampleRuntime() RuntimeSnapshot {
	sample := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		sample[i].Name = name
	}
	metrics.Read(sample)
	snap := RuntimeSnapshot{
		Goroutines: runtime.NumGoroutine(),
		HeapBytes:  sample[0].Value.Uint64(),
		GCCycles:   sample[2].Value.Uint64(),
	}
	// /gc/pauses:seconds is a histogram of individual pauses; its
	// weighted sum is the cumulative pause time.
	if h := sample[1].Value.Float64Histogram(); h != nil {
		var total float64
		for i, count := range h.Counts {
			// Buckets are [Buckets[i], Buckets[i+1]); weight each by its
			// lower edge — a stable under-approximation that avoids the
			// +Inf upper edge of the last bucket.
			edge := h.Buckets[i]
			if edge < 0 || edge != edge { // -Inf first edge, NaN guard
				edge = 0
			}
			total += float64(count) * edge
		}
		snap.GCPauseTotal = time.Duration(total * float64(time.Second))
	}
	return snap
}
