package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads the given package patterns from the fixture module rooted
// at testdata/src/trips, runs the analyzers over them, and checks every
// diagnostic against the fixtures' "// want" comments — the analysistest
// convention: a trailing comment
//
//	x := m[k] // want "regexp" "another regexp"
//
// declares that each quoted regexp must match a diagnostic reported on that
// line, and that no diagnostic may appear on a line without a matching
// expectation. Backquoted strings are accepted too.
//
//trips:api test support: every analyzer's fixture test calls it
func RunFixture(t *testing.T, analyzers []*Analyzer, validateDirectives bool, patterns ...string) {
	t.Helper()
	runFixtureIn(t, filepath.Join("testdata", "src", "trips"), analyzers, validateDirectives, patterns...)
}

// runFixtureIn is RunFixture over the fixture module rooted at dir.
func runFixtureIn(t *testing.T, dir string, analyzers []*Analyzer, validateDirectives bool, patterns ...string) {
	t.Helper()
	prog, err := Load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", patterns, err)
	}
	diags, err := Run(prog, analyzers, validateDirectives)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	checkWant(t, prog, diags)
}

type wantKey struct {
	file string
	line int
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// checkWant cross-checks diagnostics against // want expectations.
func checkWant(t *testing.T, prog *Program, diags []Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*expectation{}
	addWants := func(filename string, comments []*ast.CommentGroup, fset *token.FileSet) {
		for _, cg := range comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				key := wantKey{file: filename, line: pos.Line}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: bad // want comment %q: %v", filename, c.Text, err)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad // want string %s: %v", filename, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad // want regexp %q: %v", filename, pat, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		for i, f := range pkg.Syntax {
			addWants(pkg.Files[i], f.Comments, prog.Fset)
		}
		// Fixture *_test.go files are invisible to the loader, but the
		// allocguard analyzer parses and reports into them; collect their
		// expectations too (positions key on filename+line, so a private
		// FileSet works).
		testFiles, _ := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		for _, path := range testFiles {
			tfset := token.NewFileSet()
			f, err := parser.ParseFile(tfset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parsing fixture test file %s: %v", path, err)
			}
			addWants(path, f.Comments, tfset)
		}
	}

	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		key := wantKey{file: pos.Filename, line: pos.Line}
		matched := false
		for _, exp := range wants[key] {
			if exp.re.MatchString(d.Message) {
				exp.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", relFixture(pos.String()), d.Analyzer, d.Message)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s:%d: no diagnostic matched // want %q",
					relFixture(key.file), key.line, exp.re.String())
			}
		}
	}
}

// relFixture trims the absolute testdata prefix for readable failures.
func relFixture(p string) string {
	if i := strings.Index(p, filepath.Join("testdata", "src")); i >= 0 {
		return p[i:]
	}
	return p
}
