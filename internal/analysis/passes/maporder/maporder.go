// Package maporder requires every range over a map to say why its
// iteration order cannot reach the output.
//
// Go randomizes map iteration order, so a loop over a map that appends,
// writes or sends in that order makes a run's bytes differ from the last
// one's. Rather than guess which loop bodies are order-sensitive, the
// rule is strict: every `for ... range m` over a map (a named map type
// included) carries
//
//	//numalint:ordered <reason>
//
// on its own line or the line above, where the reason says why the order
// does not matter (the loop only counts, its result is sorted, ...). Code
// that needs an order iterates a sorted slice of keys instead, which is
// not a map range at all. A directive attached to no range over a map,
// or giving no reason, is reported too, so stale or empty annotations
// cannot accumulate.
package maporder

import (
	"go/ast"
	"go/types"

	"numasim/internal/analysis"
)

// Analyzer is the map-iteration-order check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "require //numalint:ordered <reason> on every range over a map",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var ordered []analysis.Directive
		for _, d := range analysis.Directives(f) {
			if d.Name == "ordered" {
				ordered = append(ordered, d)
			}
		}
		used := make([]bool, len(ordered))
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypesInfo.TypeOf(rng.X); t == nil {
				return true
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			line := pass.Fset.Position(rng.Pos()).Line
			for i, d := range ordered {
				if l := pass.Fset.Position(d.Pos).Line; l == line || l == line-1 {
					used[i] = true
					if d.Arg == "" {
						pass.Reportf(rng.Pos(), "range over map %s: its //numalint:ordered needs a reason", types.ExprString(rng.X))
					}
					return true
				}
			}
			pass.Reportf(rng.Pos(), "range over map %s needs //numalint:ordered <reason>, or iterate sorted keys",
				types.ExprString(rng.X))
			return true
		})
		for i, d := range ordered {
			if !used[i] {
				pass.Reportf(d.Pos, "unused //numalint:ordered directive (not attached to a range over a map)")
			}
		}
	}
	return nil
}
