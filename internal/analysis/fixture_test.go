package analysis

import (
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: each file under
// testdata/src/<analyzer> carries `// want "regexp"` comments naming the
// diagnostics the analyzer must report on that line; any diagnostic
// without a want, or want without a diagnostic, fails the test. Fixtures
// are invisible to `go list ./...` (testdata is ignored), so they may
// violate every contract freely — and they import real module packages
// (shard.Service, shard.Stats, internal/par) so the analyzers are
// exercised against the types they key on in production.

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

var (
	loaderOnce   sync.Once
	sharedLoader *Loader
	loaderErr    error
)

// fixtureLoader builds one Loader for all fixture tests — metadata
// harvesting shells out to `go list`, so the tests share the result.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loaderErr = err
			return
		}
		sharedLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return sharedLoader
}

// runFixture checks one analyzer against its want-annotated fixture.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	l := fixtureLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), "hotline/internal/analysis/testdata/"+name)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	type expectation struct {
		file string
		line int
		re   *regexp.Regexp
		got  bool
	}
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.got && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.got = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.got {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestHotallocFixture(t *testing.T)  { runFixture(t, Hotalloc, "hotalloc") }
func TestDetorderFixture(t *testing.T)  { runFixture(t, Detorder, "detorder") }
func TestMarkdirtyFixture(t *testing.T) { runFixture(t, Markdirty, "markdirty") }
func TestStatslockFixture(t *testing.T) { runFixture(t, Statslock, "statslock") }
func TestWraperrFixture(t *testing.T)   { runFixture(t, Wraperr, "wraperr") }

// TestMalformedAllow pins the driver's handling of an //hotline:allow
// without a reason — want comments can't express this one, because any
// trailing text would itself become the reason.
func TestMalformedAllow(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "directive"), "hotline/internal/analysis/testdata/directive")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{Hotalloc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if d := diags[0]; d.Analyzer != "directive" || !regexp.MustCompile(`malformed //hotline:allow`).MatchString(d.Message) {
		t.Errorf("got %s, want a malformed-allow diagnostic", d)
	}
}

// TestVetSelfCheck asserts the repo's own sources satisfy every static
// contract — the test-suite twin of `go run ./cmd/hotline-vet ./...`.
func TestVetSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Vet(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
