// Package obs is the dependency-free observability core behind the solve
// stack: in-process span trees with deterministic IDs (span.go, exported
// as JSON or Chrome trace events for Perfetto), fixed-bucket Prometheus
// histograms with canonical text rendering (histogram.go), a ring-buffered
// publish/subscribe bus for job lifecycle events (events.go), and the
// runtime gauges that /metrics reads at scrape time (runtime.go).
//
// The package imports only the standard library, so every layer — core's
// staged solvers, the runner pool, the mdsd service, and the CLIs — can
// depend on it without cycles. Everything is safe for concurrent use, and
// every knob that involves time accepts an injectable clock so tests can
// drive it deterministically.
package obs
