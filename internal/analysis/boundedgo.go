package analysis

import (
	"go/ast"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// BoundedGo enforces two concurrency-hygiene rules in daemon/solver
// code:
//
//  1. No bare `go` statements: a fixed-size fan-out goes through
//     graph.ParallelFor, and the service's job queue is runner.Pool
//     (any other audited launch carries a justification directive). An
//     unbounded launch in a request path is how a traffic spike becomes
//     an OOM.
//  2. A function that acquires a quota/semaphore slot (tryAcquireJob,
//     Acquire, TryAcquire) must also release it (releaseJob, Release)
//     — by defer or on every exit path; a function with an acquire and
//     no textual release at all is certainly leaking slots.
//
// internal/runner is out of scope by default: it implements the
// service's job queue.
var BoundedGo = &goanalysis.Analyzer{
	Name:     "boundedgo",
	Doc:      "flag unbounded goroutine launches and acquire-without-release",
	Requires: []*goanalysis.Analyzer{inspect.Analyzer},
	Run:      runBoundedGo,
}

func init() {
	BoundedGo.Flags.String("scope", goroutineScope,
		"comma-separated package-path prefixes to check (empty = all)")
}

// acquireNames / releaseNames pair the repo's quota pattern
// (tryAcquireJob/releaseJob on tenantState) with the generic
// semaphore vocabulary so future sync/semaphore use is covered too.
var (
	acquireNames = map[string]bool{"tryAcquireJob": true, "Acquire": true, "TryAcquire": true}
	releaseNames = map[string]bool{"releaseJob": true, "Release": true}
)

func runBoundedGo(pass *goanalysis.Pass) (any, error) {
	scope := pass.Analyzer.Flags.Lookup("scope").Value.String()
	if !inScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	ix := newIgnoreIndex(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	insp.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		ix.report(pass, "boundedgo", n.Pos(),
			"bare goroutine launch: fan out with graph.ParallelFor, queue on "+
				"runner.Pool, or justify with //mdsvet:ignore boundedgo -- <reason>")
	})

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || inTestFile(pass, fd.Pos()) {
			return
		}
		acquire := firstCallNamed(fd.Body, acquireNames)
		if acquire == nil {
			return
		}
		if firstCallNamed(fd.Body, releaseNames) != nil {
			return
		}
		// Functions that merely *define* the pattern (the acquire
		// helper itself) are matched by name, not by call, so they do
		// not trip this.
		ix.report(pass, "boundedgo", acquire.Pos(),
			"quota/semaphore slot acquired but never released in this function; "+
				"pair the acquire with a defer'd release")
	})
	return nil, nil
}

// firstCallNamed returns the first call in body whose callee's bare name
// (method or function) is in names, or nil.
func firstCallNamed(body *ast.BlockStmt, names map[string]bool) ast.Expr {
	var found ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		}
		if names[name] {
			found = call
		}
		return true
	})
	return found
}
