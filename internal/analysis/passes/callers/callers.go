// Package callers requires every function, method and named type of a
// package under internal/ to have a caller: a use in non-test code
// somewhere in the module, outside its own declaration. Code that only
// tests reach is not part of the simulator, and each deletion of dead
// code can leave its callees dead in turn, so the pass runs until none
// is left.
//
// Uses come from the loader's index over every package of the module
// (analysis.Index), whichever packages are named, so a use in a package
// that is not being linted still counts. A method's receiver is not a
// use of its type, nor is a package-level blank assertion such as
// var _ I = (*T)(nil), and a function's own body is not a use of it, so
// a recursive function with no other caller is reported. Two
// declarations are exempt:
//
//   - a method that satisfies a method of an interface its type
//     implements, declared in a loaded package or in a package one
//     imports (which covers error and fmt.Stringer): a call through the
//     interface reaches it without naming it;
//   - an exported declaration whose doc comment carries
//     //numalint:api <reason>, where the reason names the callers the
//     index cannot see, such as tests in another package or a nested
//     module.
//
// An api line that is not needed is itself reported, as maporder
// reports an unused ordered directive: one on a declaration that is
// used or exempt without it, one on an unexported declaration, one
// without a reason, and one that heads no function, method or type.
package callers

import (
	"go/ast"
	"go/types"
	"strings"

	"numasim/internal/analysis"
)

// Analyzer is the every-declaration-has-a-caller check.
var Analyzer = &analysis.Analyzer{
	Name: "callers",
	Doc:  "require every internal function, method and type to have a non-test caller",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		api := make(map[ast.Node]analysis.Directive)
		for _, d := range analysis.Directives(f) {
			if d.Name != "api" {
				continue
			}
			n := d.Node
			if g, ok := n.(*ast.GenDecl); ok && len(g.Specs) == 1 {
				n = g.Specs[0] // an unparenthesized type declaration
			}
			switch n.(type) {
			case *ast.FuncDecl, *ast.TypeSpec:
				api[n] = d
			default:
				pass.Reportf(d.Pos, "//numalint:api must head one function, method or type declaration")
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				check(pass, d.Name, api[d])
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						check(pass, ts.Name, api[ts])
					}
				}
			}
		}
	}
	return nil
}

// check reports the declaration named id if nothing calls it, and its api
// line (a zero Directive if none) if that line is not needed.
func check(pass *analysis.Pass, id *ast.Ident, api analysis.Directive) {
	obj := pass.TypesInfo.Defs[id]
	if obj == nil || id.Name == "_" || id.Name == "init" {
		return
	}
	name := obj.Name()
	var exempt string
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if recv := analysis.NamedType(fn.Type().(*types.Signature).Recv().Type()); recv != nil {
			name = recv.Obj().Name() + "." + name
		}
		if pass.Satisfies(fn) {
			exempt = "satisfies an interface"
		}
	}
	if pass.Used(obj) {
		exempt = "has a caller in non-test code"
	}
	switch {
	case !api.Pos.IsValid():
	case !obj.Exported():
		pass.Reportf(api.Pos, "unneeded //numalint:api: %s is unexported", name)
	case exempt != "":
		pass.Reportf(api.Pos, "unneeded //numalint:api: %s %s", name, exempt)
		return
	case api.Arg == "":
		// Reported at the declaration: the directive's line has no room
		// for anything but the reason it lacks.
		pass.Reportf(id.Pos(), "%s's //numalint:api line needs a reason naming its callers", name)
		return
	default:
		return
	}
	switch {
	case exempt != "":
	case obj.Exported():
		pass.Reportf(id.Pos(), "%s has no caller in non-test code: delete it, or give it a //numalint:api line naming its callers", name)
	default:
		pass.Reportf(id.Pos(), "%s has no caller in non-test code: delete it", name)
	}
}
