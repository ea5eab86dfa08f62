// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library so the repository carries no external dependencies.
//
// It defines the Analyzer/Pass/Diagnostic vocabulary used by the numalint
// analyzers (internal/analysis/passes/...), which statically enforce the
// simulator's determinism, protocol and units invariants, and Marks, the
// index through which a pass reads the //numalint: directive on any
// loaded declaration. Two packages feed it:
//
//   - internal/analysis/load type-checks the named packages and their
//     in-module dependencies from source and indexes their directives
//     (cmd/numalint, the one driver);
//   - internal/analysis/analysistest runs analyzers over a fixture
//     directory or fixture module and checks their diagnostics against
//     `// want` comments.
//
// Analyzers never inspect *_test.go files: test code may legitimately
// exercise nondeterminism or partial switches, and the invariants guarded
// here are about what the simulator computes, not how it is probed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a short description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass holds one analyzed package and the hooks for reporting findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's syntax, parsed with comments. Test files
	// (*_test.go) are excluded before the pass runs.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)

	marks Marks
}

// Marked reports whether the declaration named key carries the
// doc-comment directive //numalint:<name>, in whichever loaded package it
// is declared. key is types.Func.FullName for a function or method (an
// interface method included) and TypeKey for a named type. A directive is
// its declaration's contract with every package that uses it.
func (p *Pass) Marked(key, name string) bool { return p.marks[mark{key, name}] }

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Directive is one //numalint:<name> comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "ordered", "deterministic", "stateenum"
	// Arg is the rest of the comment line after the name — free text that
	// escape directives use to carry a justification.
	Arg string
	// Node is the declaration the directive is attached to, when it heads
	// a declaration's doc comment (nil for free-standing directives).
	Node ast.Node
}

const directivePrefix = "//numalint:"

// Directives collects every //numalint: comment in the file, attaching
// doc-comment directives to their declarations.
func Directives(file *ast.File) []Directive {
	byPos := make(map[token.Pos]ast.Node)
	ast.Inspect(file, func(n ast.Node) bool {
		var doc *ast.CommentGroup
		switch d := n.(type) {
		case *ast.GenDecl:
			doc = d.Doc
		case *ast.FuncDecl:
			doc = d.Doc
		case *ast.TypeSpec:
			doc = d.Doc
		case *ast.ValueSpec:
			doc = d.Doc
		case *ast.Field:
			doc = d.Doc
		}
		if doc != nil {
			for _, c := range doc.List {
				byPos[c.Pos()] = n
			}
		}
		return true
	})
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			name := strings.TrimPrefix(c.Text, directivePrefix)
			var arg string
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				arg = strings.TrimSpace(name[i:])
				name = name[:i]
			}
			out = append(out, Directive{Pos: c.Pos(), Name: name, Arg: arg, Node: byPos[c.Pos()]})
		}
	}
	return out
}

// Marks indexes doc-comment directives by the declaration they head.
// Export data carries no comments, so a driver builds one index over the
// source of every package it loads and hands it to each pass.
type Marks map[mark]bool

type mark struct{ key, name string }

// Add indexes the directives heading one type-checked package's function,
// method, interface-method and type declarations.
func (m Marks) Add(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range Directives(f) {
			var names []*ast.Ident
			switch n := d.Node.(type) {
			case *ast.FuncDecl:
				names = []*ast.Ident{n.Name}
			case *ast.TypeSpec:
				names = []*ast.Ident{n.Name}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						names = append(names, ts.Name)
					}
				}
			case *ast.Field:
				names = n.Names // struct fields define *types.Var: skipped below
			}
			for _, id := range names {
				switch obj := info.Defs[id].(type) {
				case *types.Func:
					m[mark{obj.FullName(), d.Name}] = true
				case *types.TypeName:
					if n, ok := obj.Type().(*types.Named); ok {
						m[mark{TypeKey(n), d.Name}] = true
					}
				}
			}
		}
	}
}

// HasPackageDirective reports whether any file of the pass carries the
// named free-standing or package-level directive.
func HasPackageDirective(pass *Pass, name string) bool {
	for _, f := range pass.Files {
		for _, d := range Directives(f) {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// NamedType resolves an expression's type to its *types.Named form,
// unwrapping aliases and pointers. Returns nil for unnamed types.
func NamedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// TypeKey renders a named type as "import/path.Name" for config lookups.
func TypeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ConstantsOfType enumerates the package-scope constants declared with
// exactly type T in T's declaring package (the enum members).
func ConstantsOfType(n *types.Named) []*types.Const {
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), n) {
			out = append(out, c)
		}
	}
	return out
}

// IsTestFile reports whether filename names a Go test file.
func IsTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}
