// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library so the repository carries no external dependencies.
//
// It defines the Analyzer/Pass/Diagnostic vocabulary used by the numalint
// analyzers (internal/analysis/passes/...), which statically enforce the
// simulator's determinism, protocol and units invariants, and Index,
// through which a pass reads the //numalint: directive on any loaded
// declaration and the uses of it. Two packages feed it:
//
//   - internal/analysis/load type-checks every package of the module
//     from source and indexes their directives and uses (cmd/numalint,
//     the one driver);
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

	index *Index
}

// Marked reports whether the declaration named key carries the
// doc-comment directive //numalint:<name>, in whichever loaded package it
// is declared. key is types.Func.FullName for a function or method (an
// interface method included) and TypeKey for a named type. A directive is
// its declaration's contract with every package that uses it.
func (p *Pass) Marked(key, name string) bool { return p.index.marks[mark{key, name}] }

// Used reports whether non-test code in a loaded package refers to obj,
// a function, method or package-level named type, outside obj's own
// declaration.
func (p *Pass) Used(obj types.Object) bool { return p.index.used[obj] }

// Satisfies reports whether the method fn satisfies a method of an
// indexed interface that its receiver's type implements, so a call
// through the interface reaches it without naming it.
func (p *Pass) Satisfies(fn *types.Func) bool {
	recv := NamedType(fn.Type().(*types.Signature).Recv().Type())
	if recv == nil {
		return false
	}
	for _, iface := range p.index.ifaces[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

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

// Index is what a driver learns from the source of every package it
// loads, for passes that look past the package they analyze: the
// directives heading each declaration, which functions, methods and
// named types non-test code uses, and the interfaces a method may
// satisfy. Export data carries no comments and test files are never
// loaded, so a driver builds one index over the source of every package
// it loads and hands it to each pass.
type Index struct {
	marks map[mark]bool
	// decls spans each function, method and package-level named type's
	// own declaration; a use inside it does not count.
	decls map[types.Object]span
	used  map[types.Object]bool
	// ifaces holds, by method name, the named interfaces declared in an
	// indexed package or in a package one imports, and error.
	ifaces map[string][]*types.Interface
	scoped map[*types.Package]bool // packages whose interfaces are in ifaces
}

type mark struct{ key, name string }

type span struct{ pos, end token.Pos }

// NewIndex returns an empty index.
func NewIndex() *Index {
	x := &Index{
		marks:  make(map[mark]bool),
		decls:  make(map[types.Object]span),
		used:   make(map[types.Object]bool),
		ifaces: make(map[string][]*types.Interface),
		scoped: make(map[*types.Package]bool),
	}
	x.addInterface(types.Universe.Lookup("error"))
	return x
}

// Add indexes one type-checked package. Packages are added dependencies
// first, as a driver checks them, so a declaration is indexed before
// any use of it in another package.
func (x *Index) Add(pkg *types.Package, files []*ast.File, info *types.Info) {
	x.addMarks(files, info)
	// A method's receiver is not a use of its type: a type that only
	// its own methods name has no values. Nor is a package-level blank
	// assertion, var _ I = (*T)(nil) or T{}: it only checks that T
	// implements I.
	notUses := make(map[*ast.Ident]bool)
	skip := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				notUses[id] = true
			}
			return true
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj := info.Defs[d.Name]; obj != nil {
					x.decls[obj] = span{d.Pos(), d.End()}
				}
				if d.Recv != nil {
					skip(d.Recv)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if info.Defs[sp.Name] != nil {
							x.decls[info.Defs[sp.Name]] = span{sp.Pos(), sp.End()}
						}
					case *ast.ValueSpec:
						if isAssertion(sp, info) {
							for _, v := range sp.Values {
								skip(v)
							}
						}
					}
				}
			}
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if s, ok := x.decls[obj]; notUses[id] || !ok || s.pos <= id.Pos() && id.Pos() < s.end {
			continue
		}
		x.used[obj] = true
	}
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		if x.scoped[p] {
			continue
		}
		x.scoped[p] = true
		for _, name := range p.Scope().Names() {
			x.addInterface(p.Scope().Lookup(name))
		}
	}
}

// isAssertion reports whether a package-level value spec is a blank
// interface assertion: blank names, a declared type, and values that are
// each a conversion, such as (*T)(nil), or a composite literal.
func isAssertion(sp *ast.ValueSpec, info *types.Info) bool {
	if sp.Type == nil || len(sp.Values) == 0 {
		return false
	}
	for _, id := range sp.Names {
		if id.Name != "_" {
			return false
		}
	}
	for _, v := range sp.Values {
		switch e := ast.Unparen(v).(type) {
		case *ast.CompositeLit:
		case *ast.CallExpr:
			if !info.Types[e.Fun].IsType() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (x *Index) addInterface(obj types.Object) {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		x.ifaces[name] = append(x.ifaces[name], iface)
	}
}

// addMarks indexes the directives heading the function, method,
// interface-method and type declarations of one package.
func (x *Index) addMarks(files []*ast.File, info *types.Info) {
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
					x.marks[mark{obj.FullName(), d.Name}] = true
				case *types.TypeName:
					if n, ok := obj.Type().(*types.Named); ok {
						x.marks[mark{TypeKey(n), d.Name}] = true
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
