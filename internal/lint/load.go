package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package under analysis.
type Package struct {
	PkgPath string
	Dir     string
	Files   []string
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Program is a batch of packages sharing one FileSet (diagnostic positions
// and cross-package object identity both depend on the sharing).
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Whole is true when the patterns matched every package of the module
	// (./... from the module root, or <module>/...). Whole-program checks
	// that reason about the absence of callers, like deadexport, only mean
	// something then.
	Whole bool
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct {
		Path, Dir string
		Main      bool
	}
	Error *struct{ Err string }
}

// Load lists the packages matching patterns under dir (a module directory),
// parses and type-checks the matched packages from source, and resolves
// their dependencies from compiler export data — fully offline, no module
// downloads. Only the matched (non-dependency) packages are returned for
// analysis; matched packages that import each other are type-checked in
// dependency order so every types.Object has exactly one identity across
// the whole batch (the atomicfield analyzer relies on this).
func Load(dir string, patterns ...string) (*Program, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Pure-Go builds only: cgo variants would need a C toolchain and make
	// export data host-dependent.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		listed = append(listed, lp)
	}

	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}

	prog := &Program{Fset: token.NewFileSet(), Whole: coversModule(dir, patterns, listed)}
	imp := &hybridImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}
	conf := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}

	// go list -deps emits dependencies before dependents, so checking in
	// listed order always finds sibling imports already in imp.checked.
	for _, lp := range listed {
		if lp.DepOnly {
			continue
		}
		pkg, err := checkPackage(prog.Fset, conf, lp)
		if err != nil {
			return nil, err
		}
		imp.checked[lp.ImportPath] = pkg.Types
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// coversModule reports whether one of the patterns names every package of
// the main module the matched packages belong to.
func coversModule(dir string, patterns []string, listed []*listedPackage) bool {
	var mod *listedPackage
	for _, lp := range listed {
		if !lp.DepOnly && lp.Module != nil && lp.Module.Main {
			mod = lp
			break
		}
	}
	if mod == nil {
		return false
	}
	root, err := filepath.EvalSymlinks(mod.Module.Dir)
	if err != nil {
		return false
	}
	for _, p := range patterns {
		if p == mod.Module.Path+"/..." {
			return true
		}
		base, ok := strings.CutSuffix(p, "/...")
		if !ok || !(base == "." || strings.HasPrefix(base, "./") || strings.HasPrefix(base, "../")) {
			continue
		}
		abs, err := filepath.Abs(filepath.Join(dir, base))
		if err != nil {
			continue
		}
		if abs, err = filepath.EvalSymlinks(abs); err == nil && abs == root {
			return true
		}
	}
	return false
}

// checkPackage parses and type-checks one listed package from source.
func checkPackage(fset *token.FileSet, conf *types.Config, lp *listedPackage) (*Package, error) {
	pkg := &Package{PkgPath: lp.ImportPath, Dir: lp.Dir}
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		pkg.Files = append(pkg.Files, path)
		pkg.Syntax = append(pkg.Syntax, f)
	}
	pkg.Info = newInfo()
	tpkg, err := conf.Check(lp.ImportPath, fset, pkg.Syntax, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// hybridImporter serves source-checked batch packages by identity and
// everything else from export data.
type hybridImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (h *hybridImporter) Import(path string) (*types.Package, error) {
	if p, ok := h.checked[path]; ok {
		return p, nil
	}
	return h.gc.Import(path)
}
