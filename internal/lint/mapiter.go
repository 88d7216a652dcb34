package lint

import (
	"go/ast"
	"go/types"
)

// mapiterScope is the set of determinism-critical import paths: packages
// whose output must be byte-identical across runs (the online ≡ batch ≡
// golden property, serialized snapshots, training-set construction). A
// range over a map there is nondeterministic by language spec and needs
// either sorted keys or a //trips:commutative justification. The exact bug
// class shipped in PR 1: refineByRegion's majority vote depended on map
// iteration order, making Annotate nondeterministic.
var mapiterScope = map[string]bool{
	"trips":                      true,
	"trips/internal/core":        true,
	"trips/internal/position":    true,
	"trips/internal/events":      true,
	"trips/internal/dsm":         true,
	"trips/internal/annotation":  true,
	"trips/internal/cleaning":    true,
	"trips/internal/complement":  true,
	"trips/internal/semantics":   true,
	"trips/internal/simul":       true,
	"trips/internal/analytics":   true,
	"trips/internal/tripstore":   true,
	"trips/internal/online":      true,
	"trips/internal/pipeline":    true,
	"trips/internal/experiments": true,
	"trips/cmd/trips-gen":        true,
	"trips/cmd/trips-server":     true,
	"trips/cmd/trips-translate":  true,
}

// NewMapIter returns the mapiter analyzer: no unjustified range-over-map in
// determinism-critical packages.
func NewMapIter() *Analyzer {
	an := &Analyzer{
		Name: "mapiter",
		Doc: "flags range over maps in determinism-critical packages; map iteration " +
			"order is random, so it must not reach sealed output, serialized state, " +
			"or trained models — sort the keys first or justify the loop with " +
			"//trips:commutative <reason>",
	}
	an.Run = func(pass *Pass) error {
		if !mapiterScope[pass.Path()] {
			return nil
		}
		for _, f := range pass.Files() {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info().Types[rng.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if _, ok := pass.SiteDirective(rng, dirCommutative); ok {
					return true
				}
				pass.Reportf(rng.For,
					"range over map %s in determinism-critical package %s: iteration order is random; iterate sorted keys, or justify with //trips:commutative <reason> directly above the loop",
					typeLabel(rng.X), pass.Path())
				return true
			})
		}
		return nil
	}
	return an
}

// typeLabel renders the ranged expression compactly for diagnostics.
func typeLabel(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return typeLabel(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return typeLabel(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return typeLabel(e.X) + "[...]"
	default:
		return "expression"
	}
}
