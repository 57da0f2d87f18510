package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Statslock enforces the counter discipline on shard.Stats: a service's
// counter blocks are shared state behind one mutex, so a field write
// anywhere except the declared accounting functions (annotated
// //hotline:stats-writer — the fold of a call's counts and the list of
// counter addresses it walks) is either a data race or a counter that
// silently diverges from the conformance suite's cross-transport equality
// invariant. Mutating a value-typed local copy (a call's delta, or snapshot
// arithmetic like Stats.Sub) is always fine — copies cannot race.
var Statslock = &Analyzer{
	Name: "statslock",
	Doc: "restrict shard.Stats field writes to " +
		"//hotline:stats-writer functions (or value-typed local copies)",
	Run: runStatslock,
}

// statsTypes are the guarded counter blocks.
var statsTypes = map[string]bool{"Stats": true}

func runStatslock(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, fn := range fileFuncs(f) {
			if fn.Body == nil {
				continue
			}
			writer := FuncDirective(fn, "stats-writer")
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						checkStatsWrite(pass, fn, writer, lhs, s.Pos())
					}
				case *ast.IncDecStmt:
					checkStatsWrite(pass, fn, writer, s.X, s.Pos())
				case *ast.UnaryExpr:
					if s.Op == token.AND {
						// &stats.Field escapes the guarded cell; treat an
						// address-of like a write.
						checkStatsWrite(pass, fn, writer, s.X, s.Pos())
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkStatsWrite reports a write through lhs when it lands on a field of
// a guarded stats block in shared state.
func checkStatsWrite(pass *Pass, fn *ast.FuncDecl, writer bool, lhs ast.Expr, pos token.Pos) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg, name := namedType(pass.TypeOf(sel.X))
	if pkg != shardPkg || !statsTypes[name] {
		return
	}
	if writer {
		return
	}
	if isValueLocal(pass, fn, sel.X) {
		return // mutating a copy; cannot race the shared counters
	}
	pass.Report(pos, "field %s of shard.%s written outside a //hotline:stats-writer function; count it into a local Stats and fold that in once (Service.count)", sel.Sel.Name, name)
}

// isValueLocal reports whether the base expression is a value-typed
// (non-pointer) variable declared within the function — receiver, param
// or local. Such a variable holds a copy of the counters.
func isValueLocal(pass *Pass, fn *ast.FuncDecl, base ast.Expr) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || obj.Type() == nil {
		return false
	}
	if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
		return false
	}
	return obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End()
}
