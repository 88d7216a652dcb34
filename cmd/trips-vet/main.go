// Command trips-vet runs the TRIPS static-analysis suite over the module:
// the seven custom analyzers from internal/lint (mapiter, zeroalloc,
// allocguard, wallclock, atomicfield, ctxvalue, deadexport) plus, by
// default, the stock `go vet` passes. deadexport reports only when the
// patterns cover the whole module (./... from its root). It exits non-zero when any diagnostic fires, which is what makes
// it a CI gate rather than a report.
//
// Usage:
//
//	go run ./cmd/trips-vet [flags] [packages]
//
//	-run mapiter,wallclock   run a subset of the custom analyzers
//	                         (disables directive validation: a directive
//	                         consumed by an analyzer that did not run would
//	                         read as stale)
//	-stdvet=false            skip the stock go vet passes
//	-list                    print the analyzer roster and exit
//	-C dir                   module directory to analyze (default ".")
//
// With no package arguments it analyzes ./... .
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"trips/internal/lint"
)

func main() {
	var (
		runFlag  = flag.String("run", "", "comma-separated subset of analyzers to run (default all; disables directive validation)")
		listFlag = flag.Bool("list", false, "list the analyzers and exit")
		stdVet   = flag.Bool("stdvet", true, "also run the stock go vet passes")
		dirFlag  = flag.String("C", ".", "module directory to analyze")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exitCode := 0

	if *stdVet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Dir = *dirFlag
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			exitCode = 1
		}
	}

	analyzers := lint.Analyzers()
	validateDirectives := true
	if *runFlag != "" {
		wanted := map[string]bool{}
		for _, name := range strings.Split(*runFlag, ",") {
			wanted[strings.TrimSpace(name)] = true
		}
		var selected []*lint.Analyzer
		for _, a := range analyzers {
			if wanted[a.Name] {
				selected = append(selected, a)
				delete(wanted, a.Name)
			}
		}
		if len(wanted) > 0 {
			var unknown []string
			for name := range wanted {
				unknown = append(unknown, name)
			}
			fmt.Fprintf(os.Stderr, "trips-vet: unknown analyzer(s) %s; known: %s\n",
				strings.Join(unknown, ", "), strings.Join(lint.AnalyzerNames(), ", "))
			os.Exit(2)
		}
		analyzers = selected
		validateDirectives = false
	}

	prog, err := lint.Load(*dirFlag, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trips-vet: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(prog, analyzers, validateDirectives)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trips-vet: %v\n", err)
		os.Exit(2)
	}

	wd, _ := os.Getwd()
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		name := pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "trips-vet: %d diagnostic(s)\n", len(diags))
		exitCode = 1
	}
	os.Exit(exitCode)
}
