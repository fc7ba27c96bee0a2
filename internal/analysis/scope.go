package analysis

import "strings"

// Default scopes. Analyzer scopes are comma-separated package-path
// prefixes exposed as a -<analyzer>.scope flag so the driver, CI, and
// tests all agree on where an invariant applies. The empty string means
// "every package" (used by the analysistest harness, whose synthetic
// packages have arbitrary paths).
const (
	// deterministicPkgs are the solver packages whose outputs must be
	// bit-identical across runs, worker counts, and Go versions.
	deterministicPkgs = "localmds/internal/core,localmds/internal/mds," +
		"localmds/internal/cuts,localmds/internal/graph,localmds/internal/gen," +
		"localmds/internal/experiments,localmds/internal/spqr,localmds/internal/ding"

	// seedScope adds the packages that construct RNGs on behalf of the
	// solvers: the sweep orchestrator and the daemon's request parser.
	seedScope = deterministicPkgs + ",localmds/internal/local," +
		"localmds/internal/runner,localmds/internal/service"

	// serviceScope is where the deterministic HTTP rejection taxonomy
	// lives, plus the durable store's byte-offset error taxonomy and the
	// remote client's retry classification.
	serviceScope = "localmds/internal/service,localmds/internal/store," +
		"localmds/cmd/mdsctl"

	// goroutineScope is the daemon/solver code where every goroutine
	// must come from a bounded mechanism: fixed-size fan-out goes through
	// graph.ParallelFor (its one audited `go` carries a directive), and
	// the service's job queue is runner.Pool. internal/runner is
	// deliberately absent: it implements the queue.
	goroutineScope = "localmds/internal/core,localmds/internal/mds," +
		"localmds/internal/cuts,localmds/internal/graph,localmds/internal/local," +
		"localmds/internal/graphio,localmds/internal/service,localmds/internal/obs," +
		"localmds/cmd/mdsd,localmds/internal/store,localmds/cmd/mdsctl"

	// spanScope is everywhere spans are minted: the obs package itself,
	// the pipeline drivers that accept TraceHooks, the daemon, and the
	// CLI's -trace path.
	spanScope = "localmds/internal/obs,localmds/internal/core," +
		"localmds/internal/service,localmds/cmd/mdsd,localmds/cmd/mdsrun"

	// hotPathPkgs is where allocation-heavy Graph.Edges() calls are
	// banned in favor of VisitEdges/AppendEdges.
	hotPathPkgs = deterministicPkgs + ",localmds/internal/local,localmds/internal/service"
)

// inScope reports whether pkgPath falls under the comma-separated list
// of package-path prefixes. An empty list matches everything; an entry
// matches its own package and any subpackage.
func inScope(scopeCSV, pkgPath string) bool {
	if scopeCSV == "" {
		return true
	}
	for _, p := range strings.Split(scopeCSV, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}
