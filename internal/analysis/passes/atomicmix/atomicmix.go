// Package atomicmix forbids the package-level functions of sync/atomic.
//
// A value is either atomic or it is not: `atomic.AddUint64(&s.n, 1)` on
// one path and `s.n++` on another is a data race that the race detector
// catches only when both paths run in the sampled interleaving. The rule
// makes that mix impossible by construction: a shared counter or flag is
// a sync/atomic type (atomic.Uint64, atomic.Bool, ...), whose value
// plain code cannot load or store, so every reference to a package-level
// sync/atomic function (atomic.AddUint64, atomic.LoadInt32, ...), called
// or taken as a function value, is reported. The methods of the atomic
// types are the sanctioned interface.
package atomicmix

import (
	"go/ast"
	"go/types"

	"numasim/internal/analysis"
)

// Analyzer is the atomic-type check.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "forbid package-level sync/atomic functions: shared counters use sync/atomic types",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(id.Pos(), "sync/atomic.%s on a plain value; declare it as a sync/atomic type and use its methods",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
