// Package analysis holds the repo-specific static analyzers behind
// cmd/mdsvet. Every headline guarantee this reproduction makes —
// byte-identical experiment tables at any -parallel, pipeline/sequential
// output identity, content-addressed cache correctness keyed by
// graph.Fingerprint, and the daemon's deterministic rejection taxonomy —
// rests on coding rules that used to be enforced by hand. The analyzers
// turn those rules into machine-checked invariants:
//
//   - mapiter: no `for range` over a map in the deterministic solver
//     packages; iterate slices.Sorted(maps.Keys(m)), or state why order
//     cannot matter in a directive.
//   - seedflow: all randomness is seeded through gen.DeriveSeed /
//     experiments.TaskSeed; no global math/rand state, no clock seeds.
//   - errpath: internal/service handlers route every response through
//     the central writeJSON writer so the rejection taxonomy cannot be
//     bypassed.
//   - boundedgo: no unbounded `go` launches in daemon/solver code
//     (fan-out goes through graph.ParallelFor, queued jobs through
//     runner.Pool), and no quota/semaphore acquire without a matching
//     release in the same function.
//   - edgesiter: no allocation-heavy Graph.Edges() calls in hot paths
//     (use VisitEdges/AppendEdges).
//   - directivecheck: every //mdsvet:ignore suppression names the
//     analyzer it silences and carries a written justification.
//
// A finding that is genuinely intended can be suppressed with
//
//	//mdsvet:ignore <analyzer> -- <reason>
//
// placed on the offending line or on its own line immediately above.
// Bare ignores (missing analyzer name or missing "-- reason") never
// suppress anything and are themselves flagged by directivecheck.
package analysis
