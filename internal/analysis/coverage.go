package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file cross-checks the static and runtime halves of the hot-path
// contract: every function annotated //hotline:hotpath (checked at rest by
// the hotalloc analyzer) must be reachable from at least one alloc-gated
// test — a test function whose body invokes testing.AllocsPerRun. An
// annotation with no gate behind it is a contract nobody measures; the
// coverage check turns that drift into a test failure.
//
// Reachability is computed over a name-keyed static call graph:
//
//   - nodes are function declarations, keyed "pkgpath::Recv.Name";
//   - an edge runs from a declaration to every *types.Func its body
//     references (calls, method values, and functions passed as values
//     all count — the ShardedBag.rowAt binding is a reference edge);
//   - dynamic dispatch is bridged by name: reaching an interface method
//     (a key with no body, e.g. embedding::Bag.Forward) marks every
//     module method of the same name reachable.
//
// The name bridge over-approximates (class-hierarchy analysis would be
// tighter) but never under-approximates: a function this check reports as
// unreachable has no call, reference, or same-name dispatch path from any
// alloc gate.

// A hotpathFunc is one //hotline:hotpath annotation found in the module.
type hotpathFunc struct {
	Key string // graph key, "pkgpath::Recv.Name"
	Pos string // file:line of the declaration, for reports
}

// hotpathGraph is the call graph the coverage check walks.
type hotpathGraph struct {
	edges     map[string][]string // decl key -> referenced keys
	bodies    map[string]bool     // keys with a declaration in the module
	byName    map[string][]string // method name -> module decl keys (dispatch bridge)
	roots     []string            // alloc-gated test functions
	annotated []hotpathFunc       // every //hotline:hotpath declaration
	seenAnnot map[string]bool     // dedup: plain and augmented loads overlap
}

// HotpathCoverage loads the module at dir with its in-package test files,
// builds the call graph, and returns every //hotline:hotpath function not
// reachable from an alloc-gated test (empty means full coverage).
func HotpathCoverage(dir string) ([]hotpathFunc, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	g := &hotpathGraph{
		edges:     make(map[string][]string),
		bodies:    make(map[string]bool),
		byName:    make(map[string][]string),
		seenAnnot: make(map[string]bool),
	}
	// Plain packages carry the annotations; augmented packages add the
	// test bodies (and re-state the plain bodies under identical keys).
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	for _, path := range l.TestPackages() {
		tp, err := l.LoadTests(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, tp)
	}
	for _, pkg := range pkgs {
		g.addPackage(pkg)
	}
	if len(g.roots) == 0 {
		return nil, fmt.Errorf("analysis: no testing.AllocsPerRun gates found under %s", dir)
	}
	reached := g.reach()
	var uncovered []hotpathFunc
	for _, fn := range g.annotated {
		if !reached[fn.Key] {
			uncovered = append(uncovered, fn)
		}
	}
	sort.Slice(uncovered, func(i, j int) bool { return uncovered[i].Pos < uncovered[j].Pos })
	return uncovered, nil
}

// addPackage folds one loaded package's declarations and edges in.
func (g *hotpathGraph) addPackage(pkg *Package) {
	pkgPath := strings.TrimSuffix(pkg.PkgPath, " [tests]")
	for _, f := range pkg.Files {
		inTest := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, fn := range fileFuncs(f) {
			if fn.Body == nil {
				continue
			}
			key := declKey(pkgPath, fn)
			if !g.bodies[key] {
				g.bodies[key] = true
				if fn.Recv != nil {
					g.byName[fn.Name.Name] = append(g.byName[fn.Name.Name], key)
				}
			}
			if !inTest && FuncDirective(fn, "hotpath") && !g.seenAnnot[key] {
				g.seenAnnot[key] = true
				pos := pkg.Fset.Position(fn.Pos())
				g.annotated = append(g.annotated, hotpathFunc{
					Key: key,
					Pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
				})
			}
			g.addEdges(pkg, key, fn, inTest)
		}
	}
}

// addEdges records an edge from key to every function the body references
// and, for test functions, detects the alloc-gate root condition.
func (g *hotpathGraph) addEdges(pkg *Package, key string, fn *ast.FuncDecl, inTest bool) {
	isRoot := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		callee, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if inTest && callee.Pkg() != nil && callee.Pkg().Path() == "testing" && callee.Name() == "AllocsPerRun" {
			isRoot = true
		}
		g.edges[key] = append(g.edges[key], funcKey(callee))
		return true
	})
	if isRoot {
		g.roots = append(g.roots, key)
	}
}

// reach runs the BFS from the alloc-gate roots, bridging bodiless module
// keys (interface methods) to same-named module methods.
func (g *hotpathGraph) reach() map[string]bool {
	reached := make(map[string]bool)
	queue := append([]string(nil), g.roots...)
	for _, r := range queue {
		reached[r] = true
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		next := g.edges[key]
		if !g.bodies[key] && strings.HasPrefix(key, modulePrefix) {
			// Interface method: dispatch could land on any module method
			// of the same name.
			if i := strings.LastIndex(key, "."); i >= 0 {
				next = append(next, g.byName[key[i+1:]]...)
			}
		}
		for _, n := range next {
			if !reached[n] {
				reached[n] = true
				queue = append(queue, n)
			}
		}
	}
	return reached
}

// modulePrefix scopes the dispatch bridge to this module's packages.
const modulePrefix = "hotline/"

// declKey is the graph key of a declaration: "pkgpath::Recv.Name".
func declKey(pkgPath string, fn *ast.FuncDecl) string {
	if r := recvTypeName(fn); r != "" {
		return pkgPath + "::" + r + "." + fn.Name.Name
	}
	return pkgPath + "::" + fn.Name.Name
}

// funcKey is the graph key of a resolved function object, matching
// declKey for module declarations.
func funcKey(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = strings.TrimSuffix(fn.Pkg().Path(), " [tests]")
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if p, name := namedType(sig.Recv().Type()); name != "" {
			if p != "" {
				pkgPath = strings.TrimSuffix(p, " [tests]")
			}
			return pkgPath + "::" + name + "." + fn.Name()
		}
	}
	return pkgPath + "::" + fn.Name()
}
