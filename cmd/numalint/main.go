// Command numalint runs the repository's static analyzers: determinism
// (no wall clocks or ambient entropy in the simulator core), maporder (no
// ordered output from randomized map iteration), statemachine (exhaustive
// switches and guarded Table 1/2 transitions), units (no mixing of
// simulated-time and wall-clock scales), violation (protocol panics in
// internal/numa must carry a typed ProtocolViolationError), hotpath
// (//numalint:hotpath functions are transitively allocation-free over the
// package call graph), atomicmix (no field accessed both through
// sync/atomic and plain loads/stores) and callers (every function, method
// and type under internal/ has a caller in non-test code, or a
// //numalint:api line naming the callers the module cannot show).
//
//	numalint [-list] [-only a,b] [packages]    # packages default to ./...
//
// It type-checks every package of the module from source
// (internal/analysis/load), so a declaration's //numalint: directive holds
// in every package that uses it and a use anywhere in the module counts,
// and reports findings in the named packages only. Exit status: 0 clean,
// 1 error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"numasim/internal/analysis"
	"numasim/internal/analysis/load"
	"numasim/internal/analysis/passes/atomicmix"
	"numasim/internal/analysis/passes/callers"
	"numasim/internal/analysis/passes/determinism"
	"numasim/internal/analysis/passes/hotpath"
	"numasim/internal/analysis/passes/maporder"
	"numasim/internal/analysis/passes/statemachine"
	"numasim/internal/analysis/passes/units"
	"numasim/internal/analysis/passes/violation"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	maporder.Analyzer,
	statemachine.Analyzer,
	units.Analyzer,
	violation.Analyzer,
	hotpath.Analyzer,
	atomicmix.Analyzer,
	callers.Analyzer,
}

func main() {
	progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [-list] [-only a,b] packages...\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	fs.Parse(os.Args[1:])

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "%s: unknown analyzer %q\n", progname, name)
				os.Exit(1)
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	_, total, err := lint(os.Stderr, wd, patterns, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d finding(s)\n", progname, total)
		os.Exit(2)
	}
}

// lint loads the packages matching patterns under dir, applies the
// analyzers to each and writes one line per finding to w. It returns the
// number of packages analyzed and of findings.
func lint(w io.Writer, dir string, patterns []string, analyzers []*analysis.Analyzer) (npkgs, total int, err error) {
	pkgs, index, err := load.Packages(dir, patterns...)
	if err != nil {
		return 0, 0, err
	}
	for _, pkg := range pkgs {
		findings, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, index, analyzers)
		if err != nil {
			return len(pkgs), total, fmt.Errorf("%s: %v", pkg.PkgPath, err)
		}
		for _, f := range findings {
			fmt.Fprintf(w, "%s: [%s] %s\n", pkg.Fset.Position(f.Diag.Pos), f.Analyzer.Name, f.Diag.Message)
		}
		total += len(findings)
	}
	return len(pkgs), total, nil
}
