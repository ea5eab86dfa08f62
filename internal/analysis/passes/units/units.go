// Package units keeps the simulator's time scales from being mixed.
//
// The repository renders virtual time in three distinct units: sim.Time
// (virtual nanoseconds, the engine's clock), sim.Ticks (virtual seconds,
// the unit of every rendered table) and metrics.WallMicros (wall-clock
// microseconds, host-side diagnostics only). Go's type system already
// rejects `Time + Ticks`, but a conversion through a raw float launders
// the unit: `float64(wall) - float64(ticks)` compiles and is meaningless.
//
// The analyzer tracks each operand's unit provenance through parentheses,
// unary operators and numeric conversions, and reports:
//
//   - additive or comparison operators (+ - < <= > >= == !=, and their
//     assignment forms) whose operands carry different units;
//   - a direct conversion from one unit type to another (rescaling must
//     go through an explicit accessor such as Time.Ticks(), whose method
//     call is a deliberate scale boundary).
//
// Multiplication and division are exempt: they legitimately change
// dimension (a Ticks/Ticks ratio is a plain number). Untyped constants
// carry no unit. A type joins the unit set through a //numalint:unit
// directive on its declaration, which every package using it reads.
package units

import (
	"go/ast"
	"go/token"
	"go/types"

	"numasim/internal/analysis"
)

// Analyzer is the units check.
var Analyzer = &analysis.Analyzer{
	Name: "units",
	Doc:  "flag arithmetic mixing simulated-time and wall-clock unit types",
	Run:  run,
}

// mixingOps are the operators for which operands must share a unit.
var mixingOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

var mixingAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
}

func run(pass *analysis.Pass) error {
	unitOf := func(t types.Type) *types.Named {
		if n := analysis.NamedType(t); n != nil && pass.Marked(analysis.TypeKey(n), "unit") {
			return n
		}
		return nil
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if mixingOps[e.Op] {
					checkPair(pass, unitOf, e.X, e.Y, e.OpPos, e.Op.String())
				}
			case *ast.AssignStmt:
				if mixingAssignOps[e.Tok] && len(e.Lhs) == 1 && len(e.Rhs) == 1 {
					checkPair(pass, unitOf, e.Lhs[0], e.Rhs[0], e.TokPos, e.Tok.String())
				}
			case *ast.CallExpr:
				checkConversion(pass, unitOf, e)
			}
			return true
		})
	}
	return nil
}

func checkPair(pass *analysis.Pass, unitOf func(types.Type) *types.Named, x, y ast.Expr, pos token.Pos, op string) {
	ux := provenance(pass, unitOf, x)
	uy := provenance(pass, unitOf, y)
	if ux != nil && uy != nil && ux.Obj() != uy.Obj() {
		pass.Reportf(pos, "operands of %q mix units %s and %s; rescale through an explicit accessor first",
			op, analysis.TypeKey(ux), analysis.TypeKey(uy))
	}
}

// checkConversion reports direct unit-to-unit conversions T(v).
func checkConversion(pass *analysis.Pass, unitOf func(types.Type) *types.Named, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := unitOf(tv.Type)
	if dst == nil {
		return
	}
	src := provenance(pass, unitOf, call.Args[0])
	if src != nil && src.Obj() != dst.Obj() {
		pass.Reportf(call.Pos(), "conversion from %s to %s changes units without rescaling; use an explicit accessor",
			analysis.TypeKey(src), analysis.TypeKey(dst))
	}
}

// provenance resolves the unit an expression's value is denominated in,
// looking through parentheses, unary +/- and numeric conversions. A
// function or method call (other than a conversion) is a deliberate
// boundary and yields no unit; so do untyped constants.
func provenance(pass *analysis.Pass, unitOf func(types.Type) *types.Named, e ast.Expr) *types.Named {
	tv, ok := pass.TypesInfo.Types[e]
	if ok && tv.Value != nil && tv.Type != nil {
		// A constant expression: unless it is a declared constant of a
		// unit type referenced by name, it carries no unit.
		if id := constName(e); id == nil {
			return nil
		}
	}
	if ok {
		if u := unitOf(tv.Type); u != nil {
			return u
		}
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return provenance(pass, unitOf, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ADD || x.Op == token.SUB {
			return provenance(pass, unitOf, x.X)
		}
	case *ast.CallExpr:
		if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return provenance(pass, unitOf, x.Args[0])
		}
	}
	return nil
}

func constName(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.ParenExpr:
		return constName(x.X)
	}
	return nil
}
