package analysis

import (
	"go/ast"
)

// shardPkg is the package whose protocol types the contract analyzers
// key on.
const shardPkg = "hotline/internal/shard"

// Markdirty enforces the window-repair protocol from the depth-k
// prefetch pipeline: a sparse update must announce the rows it is about
// to rewrite (Service.MarkDirty joins any open window that staged one,
// so no in-flight fetch races the write, and the consuming Forward
// delta-repairs them) BEFORE the first mutation. Statically:
//
//   - a function annotated //hotline:mutates-rows must call MarkDirty as
//     its first effectful statement, unconditionally;
//   - a function that calls Service.MarkDirty outside package shard
//     must carry the annotation, so the mutator set stays declared.
var Markdirty = &Analyzer{
	Name: "markdirty",
	Doc: "require //hotline:mutates-rows functions to call " +
		"Service.MarkDirty before the first row mutation",
	Run: runMarkdirty,
}

func runMarkdirty(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, fn := range fileFuncs(f) {
			if fn.Body == nil {
				continue
			}
			annotated := FuncDirective(fn, "mutates-rows")
			hasCall := containsMarkDirty(pass, fn.Body)
			switch {
			case annotated:
				checkMarkDirtyOrder(pass, fn)
			case hasCall && pass.Pkg.Path() != shardPkg:
				pass.Report(fn.Pos(), "%s calls Service.MarkDirty but is not annotated //hotline:mutates-rows; declare the mutation so the protocol check covers it", fn.Name.Name)
			}
		}
	}
	return nil
}

// isMarkDirtyCall reports whether the call is Service.MarkDirty.
func isMarkDirtyCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "MarkDirty" {
		return false
	}
	pkg, name := namedType(pass.TypeOf(sel.X))
	return pkg == shardPkg && name == "Service"
}

func containsMarkDirty(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isMarkDirtyCall(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// checkMarkDirtyOrder verifies the annotated function calls MarkDirty
// unconditionally before anything that could mutate rows. The check is
// positional over the top-level statements: everything before the
// MarkDirty statement must be inert (declarations, call-free assignments,
// guard ifs that only panic or return), and the MarkDirty call itself
// must be a top-level statement — a conditional or loop-nested mark
// leaves some path writing unannounced.
func checkMarkDirtyOrder(pass *Pass, fn *ast.FuncDecl) {
	for _, stmt := range fn.Body.List {
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && isMarkDirtyCall(pass, call) {
				return // protocol satisfied
			}
		}
		if containsMarkDirtyStmt(pass, stmt) {
			pass.Report(stmt.Pos(), "%s calls MarkDirty conditionally; the window-repair protocol requires an unconditional top-level call before the first row write", fn.Name.Name)
			return
		}
		if !inertBeforeMark(pass, stmt) {
			pass.Report(stmt.Pos(), "%s (annotated //hotline:mutates-rows) may mutate rows before calling MarkDirty; move the MarkDirty call above this statement", fn.Name.Name)
			return
		}
	}
	pass.Report(fn.Pos(), "%s is annotated //hotline:mutates-rows but never calls Service.MarkDirty; open prefetch windows would serve rows this function rewrites", fn.Name.Name)
}

func containsMarkDirtyStmt(pass *Pass, stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isMarkDirtyCall(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// inertBeforeMark reports whether a statement can run before MarkDirty
// without risking a row write: declarations, assignments whose right side
// calls nothing but len/cap/conversions, and guard ifs whose bodies only
// panic or return.
func inertBeforeMark(pass *Pass, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.DeclStmt:
		return true
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				return false // an index/field store could be the row write itself
			}
		}
		for _, rhs := range s.Rhs {
			if !inertExpr(pass, rhs) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil && !inertBeforeMark(pass, s.Init) {
			return false
		}
		if !inertExpr(pass, s.Cond) {
			return false
		}
		if s.Else != nil {
			return false
		}
		for _, b := range s.Body.List {
			switch bs := b.(type) {
			case *ast.ReturnStmt:
			case *ast.ExprStmt:
				call, ok := ast.Unparen(bs.X).(*ast.CallExpr)
				if !ok || !isBuiltinCall(pass.Info, call, "panic") {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return false
}

// inertExpr reports whether evaluating the expression cannot mutate rows:
// no calls except builtins and conversions.
func inertExpr(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return true
	}
	inert := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return inert
		}
		if tv, isConv := pass.Info.Types[call.Fun]; isConv && tv.IsType() {
			return inert
		}
		if isBuiltinCall(pass.Info, call, "len") || isBuiltinCall(pass.Info, call, "cap") {
			return inert
		}
		inert = false
		return false
	})
	return inert
}
