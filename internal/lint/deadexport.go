package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NewDeadExport returns the deadexport analyzer: an exported function or
// method in a package under internal/ that nothing in the module refers to
// serves no one, since no other module can import the package, yet it costs
// its own tests, docs and review. The analyzer is whole-program and reports
// only when the batch holds the whole module (./... from its root): on a
// partial load every function would look uncalled, so it stays silent and
// treats every //trips:api as consumed.
//
// A function is live when any identifier in any loaded package (the
// declaring one, the facade, cmd/ and examples/ included) refers to it,
// outside its own body. Functions match by (package path, receiver type
// name, name), with generic instantiations resolved to their origin. A
// method is also live when its receiver type, or a pointer to it, implements
// an interface the program refers to that declares the method: one named in
// a loaded package or in a package one imports (fmt.Stringer, heap.Interface,
// http.ResponseWriter), or the type of any expression. A //trips:api <reason>
// in the doc comment keeps a function with no caller; it is consumed only
// while the function has none, so a stale one is a directive diagnostic.
func NewDeadExport() *Analyzer {
	type funcKey struct{ pkg, recv, name string }
	type decl struct {
		key funcKey
		fn  *types.Func
		pos token.Pos
		api *directive
	}
	var decls []decl
	live := map[funcKey]bool{}
	ifaces := map[*types.Interface]bool{}
	seenPkgs := map[*types.Package]bool{}

	keyOf := func(fn *types.Func) funcKey {
		fn = fn.Origin()
		k := funcKey{name: fn.Name()}
		if fn.Pkg() != nil {
			k.pkg = fn.Pkg().Path()
		}
		if n := recvNamed(fn); n != nil {
			k.recv = n.Obj().Name()
		}
		return k
	}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces[it] = true
		}
	}
	addScope := func(pkg *types.Package) {
		if seenPkgs[pkg] {
			return
		}
		seenPkgs[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())

	an := &Analyzer{
		Name: "deadexport",
		Doc: "an exported function or method under internal/ needs a non-test " +
			"caller in the module, or a //trips:api <reason>",
	}
	an.Run = func(pass *Pass) error {
		if !pass.whole {
			for _, d := range pass.dirs.all {
				if d.name == dirAPI {
					d.used = true
				}
			}
			return nil
		}
		info := pass.Info()
		addScope(pass.Types())
		for _, imp := range pass.Types().Imports() {
			addScope(imp)
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		// markUses records every function n refers to, except self, so a
		// recursive function does not keep itself alive.
		markUses := func(n ast.Node, self funcKey) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok {
						if k := keyOf(fn); k != self {
							live[k] = true
						}
					}
				}
				return true
			})
		}
		internal := isInternalPath(pass.Path())
		for _, f := range pass.Files() {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					markUses(d, funcKey{})
					continue
				}
				fn, _ := info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				k := keyOf(fn)
				markUses(fd, k)
				if internal && fd.Name.IsExported() {
					decls = append(decls, decl{key: k, fn: fn, pos: fd.Name.Pos(), api: pass.funcDirective(fd, dirAPI)})
				}
			}
		}
		return nil
	}
	an.Finish = func(report func(Diagnostic)) error {
		// implements reports whether fn's receiver type, or a pointer to
		// it, satisfies a referenced interface that declares fn.
		implements := func(fn *types.Func) bool {
			t := recvNamed(fn)
			if t == nil || t.TypeParams().Len() > 0 {
				return false
			}
			for it := range ifaces {
				for i := 0; i < it.NumMethods(); i++ {
					if it.Method(i).Name() != fn.Name() {
						continue
					}
					if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
						return true
					}
				}
			}
			return false
		}
		sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })
		for _, d := range decls {
			if live[d.key] || implements(d.fn) {
				continue
			}
			if d.api != nil {
				d.api.used = true
				continue
			}
			name := d.key.name
			if d.key.recv != "" {
				name = d.key.recv + "." + name
			}
			report(Diagnostic{Pos: d.pos, Analyzer: an.Name, Message: fmt.Sprintf(
				"exported %s.%s has no non-test caller in the module: delete it, or keep it with //trips:api <reason>",
				d.fn.Pkg().Name(), name)})
		}
		return nil
	}
	return an
}

// recvNamed returns the named type a method is declared on, looking
// through a pointer receiver; nil for a plain function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isInternalPath reports whether an import path has an internal element,
// which makes the package importable only from inside its module.
func isInternalPath(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}
