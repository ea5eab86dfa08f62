// Package statemachine enforces the shape of the simulator's state
// machines: the NUMA manager's page-consistency protocol (the paper's
// Tables 1 and 2) and the engine's thread lifecycle.
//
// Two families of checks:
//
// # Exhaustive switches
//
// Every `switch` whose tag has a state-enum type (numa.State, sim.State:
// any type whose declaration carries //numalint:stateenum, in this
// package or another) must either cover all of the type's declared
// constants or carry a default clause. A new protocol state can then
// never silently fall through an existing switch.
//
// # Guarded transitions
//
// A package may designate one method as the sole writer of a state field
// with //numalint:stateguard, and declare the legal transition relation
// with //numalint:transitions on a package-level composite literal (the
// single place the paper's Table 1/2 relation lives; the guard checks it
// at simulation time). The analyzer then reports:
//
//   - any assignment to a struct field of the enum type outside the guard
//     method (composite literals — construction, not transition — are
//     exempt);
//   - any guard call whose argument is not a declared constant of the
//     enum (transitions must target named states, not computed ones);
//   - any transition-table entry that is not a declared constant, and any
//     declared state missing from the table's sources.
package statemachine

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"numasim/internal/analysis"
)

// Analyzer is the state-machine check.
var Analyzer = &analysis.Analyzer{
	Name: "statemachine",
	Doc:  "exhaustive switches over state enums and guarded Table 1/2 transitions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	isEnum := func(t types.Type) *types.Named {
		if n := analysis.NamedType(t); n != nil && pass.Marked(analysis.TypeKey(n), "stateenum") {
			return n
		}
		return nil
	}

	guard, guardEnum := findGuard(pass, isEnum)
	checkTransitionTables(pass, isEnum)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SwitchStmt:
				if s.Tag != nil {
					if enum := isEnum(pass.TypesInfo.TypeOf(s.Tag)); enum != nil {
						checkExhaustive(pass, s, enum)
					}
				}
			case *ast.AssignStmt:
				if guard != nil {
					checkFieldAssign(pass, s, isEnum, guard)
				}
			case *ast.CallExpr:
				if guard != nil {
					checkGuardCall(pass, s, guard, guardEnum)
				}
			}
			return true
		})
	}
	return nil
}

// checkExhaustive verifies that a switch over enum covers every declared
// constant or has a default clause.
func checkExhaustive(pass *analysis.Pass, s *ast.SwitchStmt, enum *types.Named) {
	consts := analysis.ConstantsOfType(enum)
	if len(consts) == 0 {
		return
	}
	covered := make(map[constant.Value]bool)
	hasDefault := false
	for _, stmt := range s.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[tv.Value] = true
			}
		}
	}
	if hasDefault {
		return
	}
	var missing []string
	for _, c := range consts {
		if !covered[c.Val()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(s.Pos(), "switch on %s is not exhaustive: missing %v (add the cases or a default clause)",
			analysis.TypeKey(enum), missing)
	}
}

// findGuard locates the //numalint:stateguard method and the enum type it
// guards (its sole parameter's type).
func findGuard(pass *analysis.Pass, isEnum func(types.Type) *types.Named) (*types.Func, *types.Named) {
	for _, f := range pass.Files {
		for _, d := range analysis.Directives(f) {
			fd, ok := d.Node.(*ast.FuncDecl)
			if d.Name != "stateguard" || !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if sig.Params().Len() != 1 {
				pass.Reportf(fd.Pos(), "//numalint:stateguard method must take exactly one state parameter")
				continue
			}
			enum := isEnum(sig.Params().At(0).Type())
			if enum == nil {
				pass.Reportf(fd.Pos(), "//numalint:stateguard parameter type is not a //numalint:stateenum type")
				continue
			}
			return obj, enum
		}
	}
	return nil, nil
}

// checkFieldAssign reports direct stores to enum-typed struct fields
// outside the guard method.
func checkFieldAssign(pass *analysis.Pass, s *ast.AssignStmt, isEnum func(types.Type) *types.Named, guard *types.Func) {
	for _, lhs := range s.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			continue
		}
		enum := isEnum(selection.Obj().Type())
		if enum == nil {
			continue
		}
		if within(pass, s.Pos(), guard) {
			continue
		}
		pass.Reportf(s.Pos(), "direct assignment to %s field %s outside %s; route the transition through the guard",
			analysis.TypeKey(enum), selection.Obj().Name(), guard.Name())
	}
}

// within reports whether pos falls inside the guard method's declaration.
func within(pass *analysis.Pass, pos token.Pos, guard *types.Func) bool {
	scope := guard.Scope()
	return scope != nil && scope.Contains(pos)
}

// checkGuardCall verifies that every call of the guard passes a declared
// constant of the enum.
func checkGuardCall(pass *analysis.Pass, call *ast.CallExpr, guard *types.Func, enum *types.Named) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if pass.TypesInfo.Uses[sel.Sel] != guard {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if id := constIdent(arg); id != nil {
		if obj, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && types.Identical(obj.Type(), enum) {
			return
		}
	}
	pass.Reportf(arg.Pos(), "%s must be called with a declared %s constant, not a computed state",
		guard.Name(), analysis.TypeKey(enum))
}

func constIdent(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.ParenExpr:
		return constIdent(x.X)
	}
	return nil
}

// checkTransitionTables validates //numalint:transitions composite
// literals: entries must be declared constants, and every declared state
// must appear as a source.
func checkTransitionTables(pass *analysis.Pass, isEnum func(types.Type) *types.Named) {
	for _, f := range pass.Files {
		for _, d := range analysis.Directives(f) {
			if d.Name != "transitions" {
				continue
			}
			var values []ast.Expr
			switch n := d.Node.(type) {
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						values = append(values, vs.Values...)
					}
				}
			case *ast.ValueSpec:
				values = append(values, n.Values...)
			default:
				pass.Reportf(d.Pos, "//numalint:transitions must annotate a package-level var declaration")
				continue
			}
			for _, v := range values {
				checkTableLiteral(pass, v, isEnum)
			}
		}
	}
}

func checkTableLiteral(pass *analysis.Pass, v ast.Expr, isEnum func(types.Type) *types.Named) {
	lit, ok := v.(*ast.CompositeLit)
	if !ok {
		pass.Reportf(v.Pos(), "//numalint:transitions value must be a composite literal")
		return
	}
	var enum *types.Named
	sources := make(map[constant.Value]bool)
	var checkExpr func(e ast.Expr)
	checkExpr = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				checkExpr(elt)
			}
		case *ast.KeyValueExpr:
			if en := isEnum(pass.TypesInfo.TypeOf(x.Key)); en != nil {
				enum = en
				if tv, ok := pass.TypesInfo.Types[x.Key]; ok && tv.Value != nil {
					sources[tv.Value] = true
				}
				requireConst(pass, x.Key, en)
			}
			checkExpr(x.Value)
		default:
			if en := isEnum(pass.TypesInfo.TypeOf(e)); en != nil {
				enum = en
				requireConst(pass, e, en)
			}
		}
	}
	for _, elt := range lit.Elts {
		checkExpr(elt)
	}
	if enum == nil {
		return
	}
	var missing []string
	for _, c := range analysis.ConstantsOfType(enum) {
		if !sources[c.Val()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(lit.Pos(), "transition table has no entries for states %v; every state needs an explicit (possibly empty) row", missing)
	}
}

// requireConst reports non-constant enum expressions in the table.
func requireConst(pass *analysis.Pass, e ast.Expr, enum *types.Named) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		pass.Reportf(e.Pos(), "transition table entries must be declared %s constants", analysis.TypeKey(enum))
	}
}
