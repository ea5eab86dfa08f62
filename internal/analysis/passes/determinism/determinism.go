// Package determinism forbids wall-clock and entropy sources inside the
// simulator's deterministic core.
//
// The repository's headline guarantee is that every table in the paper is
// reproduced by a deterministic discrete-event simulation: byte-identical
// output at any host parallelism. A single time.Now or unseeded
// math/rand call inside the simulation would silently void that
// guarantee, so the core packages are closed to ambient inputs.
//
// A package is "core" when its import path is on the built-in restricted
// list, RestrictedPrefixes (the simulator packages). Within a core
// package the analyzer reports:
//
//   - any import of math/rand, math/rand/v2 or crypto/rand (workloads
//     that need pseudo-randomness must use an explicitly seeded generator
//     owned by the simulation, not a package-level source);
//   - any reference to a wall-clock or process-identity function:
//     time.Now/Since/Until/After/AfterFunc/Tick/NewTimer/NewTicker/Sleep,
//     os.Getpid/Getppid/Environ/Getenv/Hostname.
//
// A single function inside a core package may opt back out with a
// //numalint:hostside directive on its doc comment. The escape exists
// for the harness supervisor's wall-clock watchdog: the code that bounds
// how long a simulation may run must, by definition, read the host
// clock, but it never feeds wall time back into the simulation. The
// directive is deliberately function-grained so the rest of the file
// stays under the ban.
package determinism

import (
	"go/ast"
	"strconv"
	"strings"

	"numasim/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock and entropy sources in the simulator's deterministic core",
	Run:  run,
}

// RestrictedPrefixes lists the import paths (and their subtrees) that make
// up the deterministic core.
var RestrictedPrefixes = []string{
	"numasim/internal/sim",
	"numasim/internal/numa",
	"numasim/internal/vm",
	"numasim/internal/mmu",
	"numasim/internal/pmap",
	"numasim/internal/policy",
	"numasim/internal/workloads",
	"numasim/internal/ace",
	"numasim/internal/cthreads",
	"numasim/internal/sched",
	"numasim/internal/mem",
	"numasim/internal/trace",
	"numasim/internal/simtrace",
	"numasim/internal/chaos",
	"numasim/internal/harness",
	"numasim/internal/topology",
}

// forbiddenImports are packages whose mere presence defeats determinism.
var forbiddenImports = map[string]string{
	"math/rand":    "package-level randomness",
	"math/rand/v2": "package-level randomness",
	"crypto/rand":  "hardware entropy",
}

// forbiddenFuncs maps package path to the ambient functions banned in it.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now": "wall clock", "Since": "wall clock", "Until": "wall clock",
		"After": "wall-clock timer", "AfterFunc": "wall-clock timer",
		"Tick": "wall-clock timer", "NewTimer": "wall-clock timer",
		"NewTicker": "wall-clock timer", "Sleep": "wall-clock delay",
	},
	"os": {
		"Getpid": "process identity", "Getppid": "process identity",
		"Environ": "ambient environment", "Getenv": "ambient environment",
		"LookupEnv": "ambient environment", "Hostname": "host identity",
	},
}

func restricted(pass *analysis.Pass) bool {
	path := pass.Pkg.Path()
	for _, p := range RestrictedPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// hostside collects the functions in a file that carry a
// //numalint:hostside doc-comment directive; references inside them are
// exempt from the function-level bans (imports stay checked).
func hostside(f *ast.File) map[*ast.FuncDecl]bool {
	var escaped map[*ast.FuncDecl]bool
	for _, d := range analysis.Directives(f) {
		if d.Name != "hostside" {
			continue
		}
		if fn, ok := d.Node.(*ast.FuncDecl); ok {
			if escaped == nil {
				escaped = make(map[*ast.FuncDecl]bool)
			}
			escaped[fn] = true
		}
	}
	return escaped
}

func run(pass *analysis.Pass) error {
	if !restricted(pass) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := forbiddenImports[path]; ok {
				pass.Reportf(imp.Pos(), "import of %s (%s) in deterministic package %s; use a simulation-owned seeded generator instead",
					path, why, pass.Pkg.Path())
			}
		}
		escaped := hostside(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && escaped[fn] {
				return false // //numalint:hostside: skip the whole function
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if why, ok := forbiddenFuncs[obj.Pkg().Path()][obj.Name()]; ok {
				pass.Reportf(sel.Pos(), "%s.%s (%s) in deterministic package %s; simulated code must take time from sim.Thread clocks only",
					obj.Pkg().Path(), obj.Name(), why, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
