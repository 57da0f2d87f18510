package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Hotalloc enforces the 0 allocs/op contract on functions annotated
// //hotline:hotpath: the constructs the Go compiler lowers to runtime
// allocations must not appear in them. The runtime side of the same
// contract is the testing.AllocsPerRun gates; this is its compile-time
// shadow, covering every call path instead of the ones a test executes.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid allocating constructs (escaping closures, map/slice literals, " +
		"make/append/new, fmt calls, string building, interface boxing, go " +
		"statements) in //hotline:hotpath functions",
	Run: runHotalloc,
}

func runHotalloc(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, fn := range fileFuncs(f) {
			if fn.Body == nil || !FuncDirective(fn, "hotpath") {
				continue
			}
			w := &hotallocWalker{pass: pass, serialGuarded: hasSerialGuard(pass.Info, fn.Body)}
			w.walk(fn.Body, nil)
		}
	}
	return nil
}

// hotallocWalker descends one hot function's body keeping the ancestor
// stack it needs for the two structural exemptions: closures under a
// par.Serial branch, and anything inside a panic argument (the panic path
// is cold by definition).
type hotallocWalker struct {
	pass *Pass
	// serialGuarded is set when the function body contains a branch on
	// par.Serial / par.Workers: the kernel has a serial arm that runs the
	// loop body inline, so its par closures only materialise on the forking
	// path — where the fork itself dominates the closure's cost. Both
	// guard shapes count: `if par.Serial { range } else { par.ForWork }`
	// and the early-return form `if par.Serial { range; return }` followed
	// by a top-level par.ForWork.
	serialGuarded bool
}

// parRunner names the internal/par entry points whose closure argument is
// exempt when a par.Serial branch guards the call: the serial case runs
// the loop body directly, so the closure only materialises when the
// kernel actually forks (where the fork itself dominates the cost).
const parPkg = "hotline/internal/par"

func (w *hotallocWalker) walk(n ast.Node, stack []ast.Node) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ast.CallExpr:
		if isBuiltinCall(w.pass.Info, x, "panic") {
			// Cold path: nothing under a panic argument is steady-state.
			return
		}
		w.checkCall(x, stack)
	case *ast.FuncLit:
		if !w.closureExempt(x, stack) {
			w.pass.Report(x.Pos(), "closure escapes to the heap on a hot path; run the body directly under a par.Serial branch (see par.ForWork's contract)")
		}
	case *ast.CompositeLit:
		if t := w.pass.TypeOf(x); t != nil {
			switch t.Underlying().(type) {
			case *types.Map:
				w.pass.Report(x.Pos(), "map literal allocates on a hot path; hoist into reusable scratch")
			case *types.Slice:
				w.pass.Report(x.Pos(), "slice literal allocates on a hot path; hoist into reusable scratch")
			}
		}
	case *ast.UnaryExpr:
		if cl, ok := x.X.(*ast.CompositeLit); ok && x.Op.String() == "&" {
			w.pass.Report(cl.Pos(), "&composite literal allocates on a hot path; reuse a per-instance value")
		}
	case *ast.GoStmt:
		w.pass.Report(x.Pos(), "go statement allocates a goroutine on a hot path; use the persistent workers in internal/par")
	case *ast.BinaryExpr:
		if x.Op.String() == "+" {
			if t := w.pass.TypeOf(x); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if w.pass.Info.Types[x].Value == nil { // non-constant concatenation
						w.pass.Report(x.Pos(), "string concatenation allocates on a hot path")
					}
				}
			}
		}
	case *ast.SelectorExpr:
		w.checkMethodValue(x, stack)
	}
	stack = append(stack, n)
	for _, c := range childNodes(n) {
		w.walk(c, stack)
	}
}

func (w *hotallocWalker) checkCall(call *ast.CallExpr, stack []ast.Node) {
	info := w.pass.Info
	switch {
	case isBuiltinCall(info, call, "make"):
		w.pass.Report(call.Pos(), "make allocates on a hot path; preallocate in the constructor or grow a reused buffer")
		return
	case isBuiltinCall(info, call, "new"):
		w.pass.Report(call.Pos(), "new allocates on a hot path; reuse a per-instance value")
		return
	case isBuiltinCall(info, call, "append"):
		w.pass.Report(call.Pos(), "append may grow its backing array on a hot path; reslice a preallocated buffer (tensor.Matrix.Resize-style growth needs an //hotline:allow with its amortisation argument)")
		return
	}
	// Type conversions that copy: string <-> []byte / []rune.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if to != nil && from != nil && isStringBytesConv(to, from) {
			w.pass.Report(call.Pos(), "string/byte-slice conversion copies on a hot path")
			return
		}
		if types.IsInterface(to.Underlying()) && boxes(from) {
			w.pass.Report(call.Pos(), "conversion boxes %s into %s on a hot path", from, to)
			return
		}
	}
	if fn := calleeObject(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			w.pass.Report(call.Pos(), "fmt.%s allocates on a hot path", fn.Name())
			return
		case "errors":
			if fn.Name() == "New" {
				w.pass.Report(call.Pos(), "errors.New allocates on a hot path; return a package-level sentinel")
				return
			}
		}
	}
	w.checkBoxing(call)
}

// checkBoxing flags arguments whose concrete values box into interface
// parameters — each such box is one heap allocation per call.
func (w *hotallocWalker) checkBoxing(call *ast.CallExpr) {
	sigT := w.pass.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := w.pass.TypeOf(arg)
		if at == nil || !boxes(at) {
			continue
		}
		if tv, ok := w.pass.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() != constant.String {
			continue // small constants are served from the runtime's static boxes
		}
		w.pass.Report(arg.Pos(), "argument boxes %s into %s on a hot path", at, pt)
	}
}

// paramType returns the parameter type argument i binds to, flattening
// variadic calls (nil when the slice is passed through with ... or the
// index is out of range).
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if ellipsis {
			return nil
		}
		if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// checkMethodValue flags bound method values (s.Method used as a value):
// each binds receiver and method into a fresh closure. Hot code binds
// them once at construction (ShardedBag.rowAt's pattern).
func (w *hotallocWalker) checkMethodValue(sel *ast.SelectorExpr, stack []ast.Node) {
	s, ok := w.pass.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	if len(stack) > 0 {
		if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
			return // ordinary method call, not a bound value
		}
	}
	w.pass.Report(sel.Pos(), "method value %s binds a closure on a hot path; bind once in the constructor", sel.Sel.Name)
}

// boxes reports whether converting a value of t to an interface
// allocates: concrete, not already an interface, and not pointer-shaped.
func boxes(t types.Type) bool {
	if t == nil || types.IsInterface(t.Underlying()) {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return !pointerShaped(t)
}

func isStringBytesConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteRuneSlice := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteRuneSlice(from)) || (isByteRuneSlice(to) && isStr(from))
}

// closureExempt reports whether a closure is the guarded par argument: an
// argument of a par.ForWork / par.Do / par.Go call that sits under an if
// whose condition consults par.Serial.
func (w *hotallocWalker) closureExempt(lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	call, ok := parent.(*ast.CallExpr)
	if !ok {
		return false
	}
	if ast.Unparen(call.Fun) == lit {
		return true // immediately invoked: runs inline, does not escape
	}
	if !isPkgCall(w.pass.Info, call, parPkg, "ForWork", "Do", "Go") {
		return false
	}
	if w.serialGuarded {
		return true
	}
	for _, anc := range stack {
		if ifs, ok := anc.(*ast.IfStmt); ok && condGuardsSerial(w.pass.Info, ifs.Cond) {
			return true
		}
	}
	return false
}

// hasSerialGuard reports whether a function body branches on the fork
// decision anywhere (see hotallocWalker.serialGuarded).
func hasSerialGuard(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && condGuardsSerial(info, ifs.Cond) {
			found = true
		}
		return !found
	})
	return found
}

// condGuardsSerial reports whether an if condition consults the fork
// decision — par.Serial or par.Workers — meaning the enclosing branch
// structure has a serial arm that runs the loop body inline, so the
// closure only materialises when the kernel actually forks.
func condGuardsSerial(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgCall(info, call, parPkg, "Serial", "Workers") {
			found = true
		}
		return !found
	})
	return found
}

// childNodes enumerates a node's direct children in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
