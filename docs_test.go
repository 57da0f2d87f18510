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

// declaredBenchmarks returns the Benchmark* functions of the root module's
// _test.go files, by package directory. benchmark/ is its own module.
func declaredBenchmarks(t *testing.T) map[string][]string {
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
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
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

// TestDocsNameRealBenchmarksAndFlags: `go test -bench NoSuchName` prints PASS
// and `hotline-bench` drops what it cannot parse, so a name that went stale
// in the docs or in a CI smoke would never fail by itself. This test reads
// them against the tree: (a) every alternative of every CI -bench regex
// matches a benchmark declared in the packages on its line, (b) every
// Benchmark* name written anywhere in them is one, (c) every flag written
// after hotline-bench is defined in its main.go.
func TestDocsNameRealBenchmarksAndFlags(t *testing.T) {
	byDir := declaredBenchmarks(t)

	for i, line := range strings.Split(readDoc(t, ciFile), "\n") {
		if !strings.Contains(line, "go test ") {
			continue
		}
		args := strings.Fields(line)
		var benchRe string
		var names []string
		for j, a := range args {
			switch {
			case a == "-bench" && j+1 < len(args):
				benchRe = strings.Trim(args[j+1], `'"`)
			case a == "." || strings.HasPrefix(a, "./"):
				pkg, recursive := strings.CutSuffix(a, "...")
				pkg = filepath.Clean(pkg)
				for dir, decl := range byDir {
					if dir == pkg || recursive && (pkg == "." || strings.HasPrefix(dir, pkg+"/")) {
						names = append(names, decl...)
					}
				}
			}
		}
		if benchRe == "" {
			continue
		}
		for _, alt := range strings.Split(benchRe, "|") {
			top, _, _ := strings.Cut(alt, "/") // go test matches sub-benchmarks per element
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("%s:%d: -bench %q: %v", ciFile, i+1, alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("%s:%d: -bench alternative %q matches no benchmark in the packages on its line", ciFile, i+1, alt)
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
