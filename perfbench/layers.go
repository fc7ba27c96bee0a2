package main

import "fmt"

// endToEnd lists the metrics of an untraced run, as BENCHMARK.json does.
var endToEnd = []string{
	"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "op_p99_ms", "rss_mb", "sol_over_lb", "ok_ratio",
}

// perLayer lists the metrics of a traced run with their units, as
// BENCHMARK.json does. A layer a workload does not exercise reports 0.
// README.md says which end-to-end metric each should move.
var perLayer = []struct{ name, unit string }{
	{"graphio.read_ms", "ms"},
	{"graph.twinreduce_ms", "ms"},
	{"graph.twinreduce_alloc_mb", "MB"},
	{"cuts.stage_ms", "ms"},
	{"cuts.onecuts_ms", "ms"},
	{"cuts.twocuts_ms", "ms"},
	{"cuts.alloc_mb", "MB"},
	{"core.partition_ms", "ms"},
	{"mds.componentsolve_ms", "ms"},
	{"mds.component_max_ms", "ms"},
	{"core.stitch_ms", "ms"},
	{"graph.active_vertices", "count"},
	{"cuts.cut_vertices", "count"},
	{"core.residual_components", "count"},
	{"mds.brute_fallbacks", "count"},
	{"core.solution_vertices", "count"},
	{"service.server_ms", "ms"},
	{"service.transport_ms", "ms"},
	{"service.decode_ms", "ms"},
	{"graphio.readlimited_ms", "ms"},
	{"graph.freeze_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.response_kb", "KB"},
	{"service.alloc_kb_per_req", "KB"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.computations", "count"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.solve_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.entry_kb", "KB"},
	{"store.entries", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"error_ratio", "ratio"},
}

// selectMetrics keeps the metrics the run kind reports: the end-to-end
// set untraced, the per-layer set traced (a layer left unset did no work
// and reports 0).
func selectMetrics(rep *report, traced bool) error {
	out := map[string]metric{}
	if traced {
		for _, m := range perLayer {
			v, ok := rep.metrics[m.name]
			if !ok {
				v = metric{Value: 0, Unit: m.unit}
			}
			if v.Unit != m.unit {
				return fmt.Errorf("metric %s has unit %s, want %s", m.name, v.Unit, m.unit)
			}
			out[m.name] = v
		}
	} else {
		for _, name := range endToEnd {
			v, ok := rep.metrics[name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			out[name] = v
		}
	}
	rep.metrics = out
	return nil
}

// outcome records the shared end-of-run metrics: throughput over the
// fixed list, failures, and solution quality against the oracle's bound.
func outcome(rep *report, ops int, wallSeconds float64, solSum, lbSum int) {
	rep.set("ops_per_s", "1/s", float64(ops)/wallSeconds)
	rep.set("rss_mb", "MB", peakRSSMB())
	rep.set("sol_over_lb", "ratio", float64(solSum)/float64(max(lbSum, 1)))
	errRatio := float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.set("error_ratio", "ratio", errRatio)
	rep.set("ok_ratio", "ratio", 1-errRatio)
}
