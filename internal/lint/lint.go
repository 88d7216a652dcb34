// Package lint is the TRIPS static-analysis suite: custom analyzers that
// enforce, at review time, the invariants this repo's runtime tests can only
// sample — byte-identical determinism (online ≡ batch ≡ golden), zero-alloc
// hot paths, event-time-only watermark logic, and by-value trace.Ctx
// threading. Every analyzer encodes a bug class the repo has actually hit
// (the PR 1 map-iteration nondeterminism in Annotate, wall-clock reads
// leaking into sealing logic, the cross-shard double count).
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape —
// Analyzer, Pass, Diagnostic, testdata/src fixtures with // want comments —
// but is built on the standard library alone (go/ast, go/types, go list), so
// the suite carries no module dependencies. cmd/trips-vet is the
// multichecker binary; see its docs for the CI wiring.
//
// # Directives
//
// Five comment directives thread justification through the source:
//
//	//trips:commutative <reason>   — on (or directly above) a range-over-map
//	                                 statement in a determinism-critical
//	                                 package: iteration order provably cannot
//	                                 reach output (commutative fold, or
//	                                 collect-then-sort).
//	//trips:zeroalloc              — in a function's doc comment: opts the
//	                                 function into the zeroalloc analyzer's
//	                                 allocation-construct scan.
//	//trips:guards <func>          — in a _test.go file that calls
//	                                 testing.AllocsPerRun: names the function
//	                                 ("func" or "Recv.method") the guard pins;
//	                                 the allocguard analyzer requires the
//	                                 named function to carry //trips:zeroalloc.
//	//trips:allow <analyzer>: <reason> — site-level suppression for the other
//	                                 analyzers (wallclock, atomicfield,
//	                                 ctxvalue).
//	//trips:api <reason>           — in a function's doc comment: keeps an
//	                                 exported function that nothing in the
//	                                 module calls (deadexport); consumed
//	                                 only while it has no caller.
//
// A reason is mandatory where the syntax shows one; a directive that no
// analyzer consumed (stale justification, typo'd name, wrong line) is itself
// a diagnostic when the full suite runs.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Run is invoked once per
// package; Finish (optional) runs once after every package in the batch has
// been seen, for whole-program invariants like atomicfield's cross-package
// field-access consistency. Analyzer values carry per-batch state, so always
// use a fresh instance set (Analyzers) per run.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish reports diagnostics that need the whole batch (may be nil).
	Finish func(report func(Diagnostic)) error
}

// Analyzers returns a fresh instance of the full suite, in fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewMapIter(),
		NewZeroAlloc(),
		NewAllocGuard(),
		NewWallClock(),
		NewAtomicField(),
		NewCtxValue(),
		NewDeadExport(),
	}
}

// AnalyzerNames returns the names of the full suite, in fixed order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	report   func(Diagnostic)
	dirs     *directiveIndex
	whole    bool // the batch holds every package of the module (Program.Whole)
}

// Files returns the package's parsed syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Syntax }

// Types returns the package's type-checked object.
func (p *Pass) Types() *types.Package { return p.Pkg.Types }

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.PkgPath }

// Reportf reports a diagnostic at pos under this analyzer's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether node carries a consuming
// "//trips:allow <analyzer>: <reason>" suppression for this analyzer —
// trailing on the node's first line or in the comment block directly above.
func (p *Pass) Allowed(n ast.Node) bool {
	d := p.dirs.attached(p.Fset, n, dirAllow)
	if d == nil || d.allowFor != p.Analyzer.Name {
		return false
	}
	d.used = true
	return true
}

// SiteDirective looks up a site directive (e.g. "commutative") attached to
// the node and marks it consumed. The second result is false when absent.
func (p *Pass) SiteDirective(n ast.Node, name string) (reason string, ok bool) {
	d := p.dirs.attached(p.Fset, n, name)
	if d == nil {
		return "", false
	}
	d.used = true
	return d.arg, true
}

// FuncMarked reports whether the function's doc comment carries the given
// marker directive (e.g. "zeroalloc"), consuming it.
func (p *Pass) FuncMarked(fd *ast.FuncDecl, name string) bool {
	d := p.funcDirective(fd, name)
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// funcDirective finds the named directive in fd's doc comment without
// consuming it.
func (p *Pass) funcDirective(fd *ast.FuncDecl, name string) *directive {
	if fd.Doc == nil {
		return nil
	}
	for _, c := range fd.Doc.List {
		if d := p.dirs.byPos[c.Pos()]; d != nil && d.name == name {
			return d
		}
	}
	return nil
}

// Run executes the analyzers over the packages and returns the diagnostics
// sorted by position. When validateDirectives is true (the full-suite mode
// cmd/trips-vet uses), malformed, unknown, and unconsumed //trips:
// directives are reported under the pseudo-analyzer "directive"; partial
// runs (-run, single-analyzer fixtures) must disable it, since a directive
// consumed only by an analyzer that did not run would read as stale.
func Run(prog *Program, analyzers []*Analyzer, validateDirectives bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	indexes := make([]*directiveIndex, len(prog.Pkgs))
	for i, pkg := range prog.Pkgs {
		indexes[i] = indexDirectives(prog.Fset, pkg.Syntax)
	}
	for _, an := range analyzers {
		for i, pkg := range prog.Pkgs {
			pass := &Pass{Analyzer: an, Fset: prog.Fset, Pkg: pkg, report: report, dirs: indexes[i], whole: prog.Whole}
			if err := an.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", an.Name, pkg.PkgPath, err)
			}
		}
	}
	for _, an := range analyzers {
		if an.Finish == nil {
			continue
		}
		if err := an.Finish(report); err != nil {
			return nil, fmt.Errorf("%s: %w", an.Name, err)
		}
	}
	if validateDirectives {
		for _, idx := range indexes {
			idx.validate(report)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// directive names.
const (
	dirCommutative = "commutative"
	dirZeroAlloc   = "zeroalloc"
	dirAllow       = "allow"
	dirAPI         = "api"
)

// directive is one parsed //trips:NAME comment.
type directive struct {
	name string // "commutative", "zeroalloc", "allow", "api", or an unknown name
	arg  string // everything after the name, trimmed
	// allowFor / allowReason split an allow's "analyzer: reason" argument.
	allowFor    string
	allowReason string
	pos         token.Pos
	file        string // file the comment sits in
	line        int    // line the comment sits on
	groupEnd    int    // last line of the enclosing comment group
	used        bool
}

// lineKey addresses one source line. The file name matters: a package's
// files share line numbers, and a directive in one file must never attach
// to a statement at the same line number of a sibling file.
type lineKey struct {
	file string
	line int
}

// directiveIndex holds every //trips: directive of one package.
type directiveIndex struct {
	byPos  map[token.Pos]*directive
	byLine map[lineKey][]*directive // both the directive's own line and its group-end line
	all    []*directive
}

const dirPrefix = "//trips:"

// indexDirectives scans the files' comments for //trips: directives.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byPos: map[token.Pos]*directive{}, byLine: map[lineKey][]*directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			groupEnd := fset.Position(cg.End()).Line
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, dirPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, dirPrefix)
				name, arg, _ := strings.Cut(rest, " ")
				cpos := fset.Position(c.Pos())
				d := &directive{
					name:     name,
					arg:      strings.TrimSpace(arg),
					pos:      c.Pos(),
					file:     cpos.Filename,
					line:     cpos.Line,
					groupEnd: groupEnd,
				}
				if d.name == dirAllow {
					who, why, ok := strings.Cut(d.arg, ":")
					d.allowFor = strings.TrimSpace(who)
					if ok {
						d.allowReason = strings.TrimSpace(why)
					}
				}
				idx.byPos[d.pos] = d
				idx.byLine[lineKey{d.file, d.line}] = append(idx.byLine[lineKey{d.file, d.line}], d)
				if groupEnd != d.line {
					idx.byLine[lineKey{d.file, groupEnd}] = append(idx.byLine[lineKey{d.file, groupEnd}], d)
				}
				idx.all = append(idx.all, d)
			}
		}
	}
	return idx
}

// attached finds a directive of the given name attached to node n: on n's
// first line (trailing comment), or in a comment group whose last line is
// the line directly above n.
func (idx *directiveIndex) attached(fset *token.FileSet, n ast.Node, name string) *directive {
	pos := fset.Position(n.Pos())
	for _, cand := range idx.byLine[lineKey{pos.Filename, pos.Line}] {
		if cand.name == name && cand.line == pos.Line {
			return cand
		}
	}
	for _, cand := range idx.byLine[lineKey{pos.Filename, pos.Line - 1}] {
		if cand.name == name && (cand.groupEnd == pos.Line-1 || cand.line == pos.Line-1) {
			return cand
		}
	}
	return nil
}

// validate reports malformed and unconsumed directives.
func (idx *directiveIndex) validate(report func(Diagnostic)) {
	known := map[string]bool{}
	for _, name := range AnalyzerNames() {
		known[name] = true
	}
	for _, d := range idx.all {
		switch d.name {
		case dirCommutative:
			if d.arg == "" {
				report(Diagnostic{Pos: d.pos, Analyzer: "directive",
					Message: "//trips:commutative needs a justification: //trips:commutative <why order cannot reach output>"})
				continue
			}
		case dirZeroAlloc:
			// no argument
		case dirAPI:
			if d.arg == "" {
				report(Diagnostic{Pos: d.pos, Analyzer: "directive",
					Message: "//trips:api needs a reason: //trips:api <why the function stays without a caller in the module>"})
				continue
			}
		case dirGuards:
			// The loader only sees non-test sources, so any guards
			// directive reaching this index is misplaced: it belongs in a
			// _test.go file next to the AllocsPerRun call it annotates
			// (where the allocguard analyzer reads it).
			report(Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: "//trips:guards belongs in a _test.go file next to its testing.AllocsPerRun call"})
			continue
		case dirAllow:
			if !known[d.allowFor] || d.allowReason == "" {
				report(Diagnostic{Pos: d.pos, Analyzer: "directive",
					Message: fmt.Sprintf("malformed %sallow %q: want //trips:allow <analyzer>: <reason> with analyzer one of %s",
						dirPrefix, d.arg, strings.Join(AnalyzerNames(), ", "))})
				continue
			}
		default:
			report(Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: fmt.Sprintf("unknown directive %s%s", dirPrefix, d.name)})
			continue
		}
		if !d.used {
			report(Diagnostic{Pos: d.pos, Analyzer: "directive",
				Message: fmt.Sprintf("unused %s%s directive: nothing on the next code line consumes it", dirPrefix, d.name)})
		}
	}
}
