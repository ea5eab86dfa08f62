// Command numalint runs the repository's static analyzers: determinism
// (no wall clocks or ambient entropy in the simulator core), maporder (no
// ordered output from randomized map iteration), statemachine (exhaustive
// switches and guarded Table 1/2 transitions), units (no mixing of
// simulated-time and wall-clock scales), violation (protocol panics in
// internal/numa must carry a typed ProtocolViolationError), hotpath
// (//numalint:hotpath functions are transitively allocation-free over the
// package call graph) and atomicmix (no field accessed both through
// sync/atomic and plain loads/stores).
//
// Two modes share one binary:
//
//	numalint ./...                     # standalone: analyze packages
//	go vet -vettool=$(make numalint) ./...   # under the go build cache
//
// The vettool mode is selected automatically when the go command invokes
// the binary with -V=full, -flags or a .cfg unit file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"numasim/internal/analysis"
	"numasim/internal/analysis/load"
	"numasim/internal/analysis/passes/atomicmix"
	"numasim/internal/analysis/passes/determinism"
	"numasim/internal/analysis/passes/hotpath"
	"numasim/internal/analysis/passes/maporder"
	"numasim/internal/analysis/passes/statemachine"
	"numasim/internal/analysis/passes/units"
	"numasim/internal/analysis/passes/violation"
	"numasim/internal/analysis/vettool"
)

var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	maporder.Analyzer,
	statemachine.Analyzer,
	units.Analyzer,
	violation.Analyzer,
	hotpath.Analyzer,
	atomicmix.Analyzer,
}

func main() {
	progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	args := os.Args[1:]

	// The go command's vettool protocol: version/flags queries, or a
	// single .cfg compilation unit.
	if len(args) == 1 && (strings.HasPrefix(args[0], "-V") || args[0] == "-flags" || filepath.Ext(args[0]) == ".cfg") {
		os.Exit(vettool.Main(progname, args, analyzers))
	}

	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [-list] [-only a,b] packages...\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	fs.Parse(args)

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
	pkgs, err := load.Packages(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}

	total := 0
	for _, pkg := range pkgs {
		findings, err := analysis.Run(pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, selected)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", progname, pkg.PkgPath, err)
			os.Exit(1)
		}
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkg.Fset.Position(f.Diag.Pos), f.Analyzer.Name, f.Diag.Message)
		}
		total += len(findings)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d finding(s)\n", progname, total)
		os.Exit(2)
	}
}
