package hotline_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const ciFile = ".github/workflows/ci.yml"

// docFiles are the prose files that tell a reader which benchmark or flag
// to run.
var docFiles = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	benchToken = regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
	// cmdTail is the rest of a hotline-bench command: up to the end of the
	// line, the closing backtick, a comment or a shell operator.
	cmdTail   = regexp.MustCompile("hotline-bench([^`#;|&()\n]*)")
	flagToken = regexp.MustCompile(`(?:^|[\s/])-([a-z][a-z0-9-]*)`)
	flagDef   = regexp.MustCompile(`flag\.\w+\("([^"]+)"`)
)

// declaredTestFuncs returns the top-level functions of the root module's
// _test.go files whose name starts with prefix ("Benchmark", "Test"), by
// package directory. benchmark/ is its own module.
func declaredTestFuncs(t *testing.T, prefix string) map[string][]string {
	t.Helper()
	byDir := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) {
				dir := filepath.Dir(path)
				byDir[dir] = append(byDir[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return byDir
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// splitAlternatives splits a regex on its top-level '|' only, so a group
// like TestRecoveryTCP/(KillRedial|KillAdopt)/n2 stays one alternative.
func splitAlternatives(re string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range re {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, re[start:])
}

// TestDocsNameRealBenchmarksAndFlags: `go test -bench NoSuchName` and `go
// test -run NoSuchName` print PASS, and `hotline-bench` drops what it cannot
// parse, so a name that went stale in the docs or in a CI step would never
// fail by itself. This test reads them against the tree: (a) every
// alternative of every CI -bench and -run regex matches a benchmark, or a
// test, declared in the packages on its line, (b) every Benchmark* name
// written anywhere in them is one, (c) every flag written after hotline-bench
// is defined in its main.go.
func TestDocsNameRealBenchmarksAndFlags(t *testing.T) {
	byDir := declaredTestFuncs(t, "Benchmark")
	testsByDir := declaredTestFuncs(t, "Test")

	for i, line := range strings.Split(readDoc(t, ciFile), "\n") {
		if !strings.Contains(line, "go test ") || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue // not a command, or one quoted in a comment
		}
		args := strings.Fields(line)
		regexes := map[string]string{} // "-bench", "-run" -> the regex on this line
		var pkgs []string
		for j, a := range args {
			switch {
			case (a == "-bench" || a == "-run") && j+1 < len(args):
				regexes[a] = strings.Trim(args[j+1], `'"`)
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		for flag, decls := range map[string]map[string][]string{"-bench": byDir, "-run": testsByDir} {
			re := regexes[flag]
			if re == "" || re == "^$" {
				continue
			}
			var names []string
			for _, a := range pkgs {
				pkg, recursive := strings.CutSuffix(a, "...")
				pkg = filepath.Clean(pkg)
				for dir, decl := range decls {
					if dir == pkg || recursive && (pkg == "." || strings.HasPrefix(dir, pkg+"/")) {
						names = append(names, decl...)
					}
				}
			}
			for _, alt := range splitAlternatives(re) {
				top, _, _ := strings.Cut(alt, "/") // go test matches sub-tests and sub-benchmarks per element
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("%s:%d: %s %q: %v", ciFile, i+1, flag, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s:%d: %s alternative %q matches nothing declared in the packages on its line", ciFile, i+1, flag, alt)
				}
			}
		}
	}

	var all []string
	for _, decl := range byDir {
		all = append(all, decl...)
	}
	flags := map[string]bool{}
	for _, m := range flagDef.FindAllStringSubmatch(readDoc(t, "cmd/hotline-bench/main.go"), -1) {
		flags[m[1]] = true
	}
	if len(all) == 0 || len(flags) == 0 {
		t.Fatalf("found %d benchmarks and %d hotline-bench flags in the tree", len(all), len(flags))
	}
	for _, path := range append([]string{ciFile}, docFiles...) {
		text := readDoc(t, path)
		for _, name := range benchToken.FindAllString(text, -1) {
			if !slices.ContainsFunc(all, func(decl string) bool { return strings.HasPrefix(decl, name) }) {
				t.Errorf("%s: names %s, which no _test.go declares", path, name)
			}
		}
		for _, cmd := range cmdTail.FindAllStringSubmatch(text, -1) {
			for _, m := range flagToken.FindAllStringSubmatch(cmd[1], -1) {
				if !flags[m[1]] {
					t.Errorf("%s: hotline-bench%s: -%s is not a flag of cmd/hotline-bench", path, cmd[1], m[1])
				}
			}
		}
	}
}

// declaredNames returns, by package name, what the non-test files of the
// root package and of every internal/ package declare: top-level functions,
// types, constants and variables by name, methods, struct fields and
// interface methods as "Type.Member". aliases maps "pkg.Type" to the
// "pkg.Type" it is declared equal to (the root façade's `type X = pkg.X`).
func declaredNames(t *testing.T) (names map[string]map[string]bool, aliases map[string]string) {
	t.Helper()
	names, aliases = map[string]map[string]bool{}, map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && path != "internal" && !strings.HasPrefix(path, "internal/") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if names[pkg] == nil {
			names[pkg] = map[string]bool{}
		}
		add := func(parts ...string) { names[pkg][strings.Join(parts, ".")] = true }
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name)
						}
					case *ast.TypeSpec:
						add(spec.Name.Name)
						var members *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						case *ast.SelectorExpr:
							if from, ok := typ.X.(*ast.Ident); ok && spec.Assign.IsValid() {
								aliases[pkg+"."+spec.Name.Name] = from.Name + "." + typ.Sel.Name
							}
						}
						if members != nil {
							for _, m := range members.List {
								for _, id := range m.Names {
									add(spec.Name.Name, id.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names, aliases
}

var (
	fence      = regexp.MustCompile("(?s)```(\\w*)\n(.*?)```")
	inlineCode = regexp.MustCompile("`[^`]+`")
)

// TestDocsNameRealIdentifiers: prose does not compile, so a symbol deleted
// or renamed in the tree lives on in README, DESIGN and the verify skill
// until a reader trips over it. Every `pkg.Name` or `pkg.Type.Member`
// written there in an inline code span or a Go code block — pkg being
// hotline or an internal package, Name exported — must resolve to a
// declaration; a trailing * makes the last element a prefix
// (`tensor.QuantizeRow*`).
func TestDocsNameRealIdentifiers(t *testing.T) {
	names, aliases := declaredNames(t)
	var pkgs []string
	for pkg := range names {
		if pkg != "main" {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) < 10 || !names["hotline"]["NewModel"] || !names["shard"]["Service.Snapshot"] {
		t.Fatalf("found packages %v; the declaration walk is broken", pkgs)
	}
	// Not after a path separator, a dot or an identifier character: docs/model.go
	// names a file, svc.shard.X a field.
	ref := regexp.MustCompile(`(^|[^\w./])(` + strings.Join(pkgs, "|") + `)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?(\*)?`)

	resolves := func(pkg, name, member string, prefix bool) bool {
		if to, ok := aliases[pkg+"."+name]; ok && member != "" {
			pkg, name, _ = strings.Cut(to, ".")
		}
		want := name
		if member != "" {
			want += "." + member
		}
		if !prefix {
			return names[pkg][want]
		}
		for decl := range names[pkg] {
			if strings.HasPrefix(decl, want) {
				return true
			}
		}
		return false
	}
	for _, path := range docFiles {
		text := readDoc(t, path)
		var code []string
		for _, m := range fence.FindAllStringSubmatch(text, -1) {
			if m[1] == "go" {
				code = append(code, m[2])
			}
		}
		code = append(code, inlineCode.FindAllString(fence.ReplaceAllString(text, ""), -1)...)
		checked := 0
		for _, span := range code {
			for _, m := range ref.FindAllStringSubmatch(span, -1) {
				pkg, name, member, prefix := m[2], m[3], m[4], m[5] != ""
				checked++
				if !resolves(pkg, name, "", prefix && member == "") {
					t.Errorf("%s: names %s.%s, which %s does not declare", path, pkg, name, pkg)
				} else if member != "" && !resolves(pkg, name, member, prefix) {
					t.Errorf("%s: names %s.%s.%s, which %s does not declare", path, pkg, name, member, pkg)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no qualified identifier found; the span walk is broken", path)
		}
	}
}

var mdPath = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestDocsNameRealFiles: a document that was never written, or was deleted,
// lives on where prose points at it. Every *.md path written in a package
// comment (doc.go), README, DESIGN or the verify skill must be a file of the
// tree, by its path from the root. (.go and .json names are not checked: the
// docs write suffixes like _test.go, bare file names relative to a package and
// example outputs like report.json.)
func TestDocsNameRealFiles(t *testing.T) {
	paths := slices.Clone(docFiles)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "doc.go" {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range paths {
		for _, name := range mdPath.FindAllString(readDoc(t, path), -1) {
			checked++
			if _, err := os.Stat(filepath.Clean(name)); err != nil {
				t.Errorf("%s: names %s, which is not in the tree", path, name)
			}
		}
	}
	if len(paths) < len(docFiles)+10 || checked < 10 {
		t.Fatalf("read %d files and checked %d names; the walk is broken", len(paths), checked)
	}
}
