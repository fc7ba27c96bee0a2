package analysis

import (
	"go/ast"
	"go/types"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// MapIter flags every `for range` over a map-typed value in the
// deterministic solver packages. Go randomizes map iteration order per
// run, so a map walk is the one place visit order can leak into output
// that must be bit-identical. The rule has no exceptions to reason
// about: iterate slices.Sorted(maps.Keys(m)) instead (a range over an
// iterator is not a range over a map), or state why order cannot matter
// with //mdsvet:ignore mapiter -- <reason>.
var MapIter = &goanalysis.Analyzer{
	Name:     "mapiter",
	Doc:      "flag iteration over maps in deterministic solver packages",
	Requires: []*goanalysis.Analyzer{inspect.Analyzer},
	Run:      runMapIter,
}

func init() {
	MapIter.Flags.String("scope", deterministicPkgs,
		"comma-separated package-path prefixes to check (empty = all)")
}

func runMapIter(pass *goanalysis.Pass) (any, error) {
	scope := pass.Analyzer.Flags.Lookup("scope").Value.String()
	if !inScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	ix := newIgnoreIndex(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		rs := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		ix.report(pass, "mapiter", rs.Range,
			"iteration over map: map order is randomized; range over "+
				"slices.Sorted(maps.Keys(m)) or add "+
				"//mdsvet:ignore mapiter -- <reason>")
	})
	return nil, nil
}
