package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	goanalysis "golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// MapIter flags `for range` statements over maps in the deterministic
// solver packages. Go randomizes map iteration order per run, so any
// map walk whose effect depends on visit order breaks the repo's
// bit-identical-output guarantees. A walk is accepted without a
// directive when it is provably order-insensitive:
//
//   - collect-then-sort: the body only appends to one slice, and the
//     next statement that touches that slice is a recognized sort call;
//   - commutative accumulation: every statement is an integer
//     counter/sum update, a min/max fold, a set insert with a constant
//     value, or a delete — effects that commute across iterations.
//
// Anything else needs //mdsvet:ignore mapiter -- <reason>.
var MapIter = &goanalysis.Analyzer{
	Name:     "mapiter",
	Doc:      "flag order-sensitive map iteration in deterministic solver packages",
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
	insp.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		rs := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if collectThenSort(pass, rs, stack) || commutativeBody(pass, rs) || quantifierBody(rs) {
			return true
		}
		ix.report(pass, "mapiter", rs.Range,
			"order-sensitive iteration over map: map order is randomized; "+
				"collect and sort the keys, make the body commutative, or add "+
				"//mdsvet:ignore mapiter -- <reason>")
		return true
	})
	return nil, nil
}

// collectThenSort accepts the canonical deterministic walk
//
//	for k := range m { s = append(s, k) }
//	sort.Ints(s)
//
// i.e. a body whose only order-relevant effect is one append into a
// slice variable, where the first following sibling statement that
// mentions the slice is a recognized sort call taking it as an
// argument. Besides the append, the body may contain recognized sort
// calls of its own (e.g. sorting each collected class in place): those
// commute across iterations.
func collectThenSort(pass *goanalysis.Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	var target *ast.Ident
	for _, st := range rs.Body.List {
		if t := appendTarget(st); t != nil {
			if target != nil {
				return false // two different collectors: too clever, flag it
			}
			target = t
			continue
		}
		if es, ok := st.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && sortFuncs[pkg.Name+"."+sel.Sel.Name] {
						continue
					}
				}
			}
		}
		return false
	}
	if target == nil {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(target)
	if obj == nil {
		return false
	}
	// Find the statement list directly containing the range loop.
	siblings, idx := siblingStmts(rs, stack)
	if siblings == nil {
		return false
	}
	for _, st := range siblings[idx+1:] {
		if !mentionsObject(pass, st, obj) {
			continue
		}
		return isSortOf(pass, st, obj)
	}
	return false
}

// appendTarget returns the slice identifier of a statement of the form
// `s = append(s, ...)`, or nil.
func appendTarget(st ast.Stmt) *ast.Ident {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) < 2 {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil
	}
	return lhs
}

// siblingStmts locates the statement list that directly contains rs.
func siblingStmts(rs *ast.RangeStmt, stack []ast.Node) ([]ast.Stmt, int) {
	for i := len(stack) - 2; i >= 0; i-- {
		var list []ast.Stmt
		switch parent := stack[i].(type) {
		case *ast.BlockStmt:
			list = parent.List
		case *ast.CaseClause:
			list = parent.Body
		case *ast.CommClause:
			list = parent.Body
		default:
			continue
		}
		for j, st := range list {
			if st == ast.Stmt(rs) {
				return list, j
			}
		}
		return nil, 0
	}
	return nil, 0
}

func mentionsObject(pass *goanalysis.Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// sortFuncs are the recognized "makes the collected keys deterministic"
// calls: package sort and package slices sorters.
var sortFuncs = map[string]bool{
	"sort.Ints": true, "sort.Strings": true, "sort.Float64s": true,
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true,
	"sort.SliceStable": true,
	"slices.Sort":      true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// isSortOf reports whether st is (or begins with) a recognized sort call
// that receives obj in its arguments.
func isSortOf(pass *goanalysis.Pass, st ast.Stmt, obj types.Object) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || !sortFuncs[pkg.Name+"."+sel.Sel.Name] {
		return false
	}
	for _, arg := range call.Args {
		if mentionsObject(pass, arg, obj) {
			return true
		}
	}
	return false
}

// commutativeBody reports whether every statement of the loop body has
// an iteration-order-independent effect.
func commutativeBody(pass *goanalysis.Pass, rs *ast.RangeStmt) bool {
	written := assignedObjects(pass, rs.Body)
	for _, st := range rs.Body.List {
		if !commutativeStmt(pass, st, written) {
			return false
		}
	}
	return len(rs.Body.List) > 0
}

// assignedObjects collects every object written (assigned, ++/--) inside
// the body. Conditions of accepted if-statements must not read these:
// `if sum < 100 { sum += v }` depends on visit order even though the
// branch body alone commutes.
func assignedObjects(pass *goanalysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	w := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if id := baseIdent(lhs); id != nil {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						w[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id := baseIdent(st.X); id != nil {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					w[obj] = true
				}
			}
		}
		return true
	})
	return w
}

// baseIdent unwraps x, x[i], x.f, *x to the root identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func commutativeStmt(pass *goanalysis.Pass, st ast.Stmt, written map[types.Object]bool) bool {
	switch s := st.(type) {
	case *ast.IncDecStmt:
		// count++ / count-- commute.
		return true
	case *ast.AssignStmt:
		return commutativeAssign(pass, s)
	case *ast.ExprStmt:
		// delete(m, k): removals of distinct keys commute.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil || s.Else != nil {
			return false
		}
		// `if v > best { best = v }` is the min/max fold: the guard reads
		// the accumulator, but the fold still commutes.
		if isMinMaxFold(pass, s) {
			return true
		}
		// Other guarded commutative updates are fine as long as the
		// guard does not read loop-written state.
		if readsAny(pass, s.Cond, written) {
			return false
		}
		for _, inner := range s.Body.List {
			if !commutativeStmt(pass, inner, written) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	default:
		return false
	}
}

// commutativeAssign accepts integer accumulators (+=, -=, |=, &=, ^=),
// min/max-style plain assigns `x = min(x, v)` / `x = max(x, v)`, and
// set inserts `m[k] = <literal>`. Floating-point accumulation is
// rejected: float addition is not associative, so visit order leaks
// into the low bits.
func commutativeAssign(pass *goanalysis.Pass, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		t := pass.TypesInfo.TypeOf(as.Lhs[0])
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	case token.ASSIGN:
		// m[k] = true / m[k] = 1 / m[k] = struct{}{}: set semantics.
		if _, ok := as.Lhs[0].(*ast.IndexExpr); ok {
			switch rhs := as.Rhs[0].(type) {
			case *ast.BasicLit:
				return true
			case *ast.Ident:
				return rhs.Name == "true" || rhs.Name == "false"
			case *ast.CompositeLit:
				return len(rhs.Elts) == 0
			}
			return false
		}
		// x = min(x, v) / x = max(x, v) folds commute.
		if lhs, ok := as.Lhs[0].(*ast.Ident); ok {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && (fn.Name == "min" || fn.Name == "max") {
					obj := pass.TypesInfo.ObjectOf(lhs)
					for _, arg := range call.Args {
						if mentionsObject(pass, arg, obj) {
							return true
						}
					}
				}
			}
		}
		return false
	default:
		return false
	}
}

// quantifierBody accepts pure ∀/∃ scans: loops whose only effect is a
// possible early return, with no assignments and no function calls in
// the body, and with every return statement in the loop returning the
// same loop-invariant results (literals or identifiers, which the
// no-assignment rule guarantees are not written by the loop). Whichever
// element triggers the return, the returned values are identical, so
// visit order cannot leak out. The canonical instance is
//
//	for _, rec := range records {
//		if !known(rec) { return false }
//	}
//	return true
func quantifierBody(rs *ast.RangeStmt) bool {
	var returns []*ast.ReturnStmt
	sawReturn := false
	ok := quantifierStmts(rs.Body.List, &returns)
	if !ok || len(rs.Body.List) == 0 {
		return false
	}
	for _, ret := range returns {
		for _, res := range ret.Results {
			switch res.(type) {
			case *ast.BasicLit, *ast.Ident:
			default:
				return false
			}
		}
		sawReturn = true
	}
	if !sawReturn {
		// No return at all means the body does nothing: not a
		// quantifier, let the other heuristics judge it.
		return false
	}
	// All return statements must be identical so that *which* element
	// triggers first cannot change the result.
	first := returns[0]
	for _, ret := range returns[1:] {
		if !sameReturn(first, ret) {
			return false
		}
	}
	return true
}

// quantifierStmts checks that every statement is side-effect-free
// control flow (nested loops, if without calls, break/continue) or a
// return, collecting the returns.
func quantifierStmts(list []ast.Stmt, returns *[]*ast.ReturnStmt) bool {
	for _, st := range list {
		switch s := st.(type) {
		case *ast.ReturnStmt:
			*returns = append(*returns, s)
		case *ast.IfStmt:
			if s.Else != nil || hasCall(s.Cond) || (s.Init != nil && hasCallStmt(s.Init)) {
				return false
			}
			if !quantifierStmts(s.Body.List, returns) {
				return false
			}
		case *ast.RangeStmt:
			// Inner ranges are fine (an inner map range is judged as its
			// own RangeStmt by the analyzer), as long as the operand
			// itself involves no call.
			if hasCall(s.X) {
				return false
			}
			if !quantifierStmts(s.Body.List, returns) {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE && s.Tok != token.BREAK {
				return false
			}
		case *ast.BlockStmt:
			if !quantifierStmts(s.List, returns) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func hasCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

func hasCallStmt(st ast.Stmt) bool { return hasCall(st) }

// sameReturn reports whether two return statements return syntactically
// identical literals/identifiers.
func sameReturn(a, b *ast.ReturnStmt) bool {
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		switch x := a.Results[i].(type) {
		case *ast.BasicLit:
			y, ok := b.Results[i].(*ast.BasicLit)
			if !ok || x.Value != y.Value || x.Kind != y.Kind {
				return false
			}
		case *ast.Ident:
			y, ok := b.Results[i].(*ast.Ident)
			if !ok || x.Name != y.Name {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isMinMaxFold accepts `if a OP b { x = e }` where OP is an ordering
// comparison, the body is a single plain assignment, and the assigned
// variable sits on one side of the comparison with the assigned value on
// the other — the canonical running-min/max update.
func isMinMaxFold(pass *goanalysis.Pass, s *ast.IfStmt) bool {
	cmp, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cmp.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	if len(s.Body.List) != 1 {
		return false
	}
	as, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs := baseIdent(as.Lhs[0])
	rhs := baseIdent(as.Rhs[0])
	if lhs == nil || rhs == nil {
		return false
	}
	lobj, robj := pass.TypesInfo.ObjectOf(lhs), pass.TypesInfo.ObjectOf(rhs)
	if lobj == nil || robj == nil {
		return false
	}
	sides := [2]ast.Expr{cmp.X, cmp.Y}
	for i, acc := range sides {
		val := sides[1-i]
		if mentionsObject(pass, acc, lobj) && mentionsObject(pass, val, robj) {
			return true
		}
	}
	return false
}

// readsAny reports whether expr references any of the given objects.
func readsAny(pass *goanalysis.Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
