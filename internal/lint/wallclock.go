package lint

import (
	"go/ast"
)

// wallclockScope is the set of packages whose core logic is event-time
// only: watermark, sealing, and admission decisions (online), fold
// frontiers and windowed views (analytics), batch translation (core), the
// warehouse (tripstore), and the server wiring that surfaces them. A bare
// wall-clock read there is how the seed's bug class happens: sealing
// decisions that depend on when the process ran instead of what the records
// say. Operational uses (latency metrics, snapshot timestamps, trace
// stamps) are legal but must say so with //trips:allow wallclock: <reason>;
// injected clocks (the engine's now field) and record timestamps need
// nothing.
var wallclockScope = map[string]bool{
	"trips/internal/online":    true,
	"trips/internal/pipeline":  true,
	"trips/internal/analytics": true,
	"trips/internal/core":      true,
	"trips/internal/tripstore": true,
	"trips/cmd/trips-server":   true,
}

// wallclockFuncs are the time-package functions that read the wall clock.
var wallclockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// NewWallClock returns the wallclock analyzer: no bare wall-clock reads in
// event-time packages.
func NewWallClock() *Analyzer {
	an := &Analyzer{
		Name: "wallclock",
		Doc: "forbids bare time.Now/Since/Until calls inside event-time packages " +
			"(watermark, sealing, admission, fold-frontier logic) where only record " +
			"timestamps or an injected clock are legal; operational uses carry " +
			"//trips:allow wallclock: <reason>",
	}
	an.Run = func(pass *Pass) error {
		if !wallclockScope[pass.Path()] {
			return nil
		}
		info := pass.Info()
		for _, f := range pass.Files() {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObject(info, call)
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !wallclockFuncs[obj.Name()] {
					return true
				}
				if pass.Allowed(call) {
					return true
				}
				pass.Reportf(call.Pos(),
					"wall-clock read time.%s in event-time package %s: use record timestamps or the injected clock, or justify an operational use with //trips:allow wallclock: <reason>",
					obj.Name(), pass.Path())
				return true
			})
		}
		return nil
	}
	return an
}
