// Package callgraph builds a conservative per-package call graph for the
// numalint interprocedural pass, hotpath.
//
// The graph has one node per declared function or method with a body, and
// one out-edge per potential transfer of control found in that body:
// direct calls, calls started by go and defer statements, and references
// to functions outside call position (method values, functions stored
// into variables or struct fields, functions passed as arguments). Sites
// whose target cannot be resolved statically — calls through function
// values, function-typed fields, and interface method dispatch — produce
// edges with a nil Callee and a human-readable Dynamic description, so a
// pass can either reject them or demand an annotation.
//
// Code inside function literals is attributed to the enclosing declared
// function: a closure built on a hot path may run anywhere, so its body
// must meet the same obligations as the function that builds it.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Kind classifies how an edge's target may be reached.
type Kind int

const (
	// Call is a direct call in call position.
	Call Kind = iota
	// Go is a call started by a go statement.
	Go
	// Defer is a call scheduled by a defer statement.
	Defer
	// Ref is a function referenced outside call position: a method value,
	// a function stored or passed as a value. The reference may be invoked
	// later from anywhere, so passes treat it like a call.
	Ref
)

func (k Kind) String() string {
	switch k {
	case Call:
		return "call"
	case Go:
		return "go"
	case Defer:
		return "defer"
	case Ref:
		return "reference"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Edge is one potential transfer of control out of a function.
type Edge struct {
	Kind Kind
	Pos  token.Pos
	// Callee is the statically resolved target, possibly from another
	// package. Nil when the target cannot be resolved; Dynamic then
	// describes the site.
	Callee *types.Func
	// Interface marks a resolved method whose dispatch is still dynamic
	// (the receiver is an interface): Callee names the interface method,
	// but any implementation may run.
	Interface bool
	// Dynamic describes an unresolvable target, e.g. "function value" or
	// "function-typed field RefTrace".
	Dynamic string
}

// Node is one declared function or method and its outgoing edges, in
// source order.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Out  []Edge
}

// Graph is the call graph of one package.
type Graph struct {
	// Nodes maps each declared function object to its node.
	Nodes map[*types.Func]*Node
	// ByDecl maps the declaration syntax to the same nodes.
	ByDecl map[*ast.FuncDecl]*Node
}

// Node returns the node for f, or nil if f is not declared with a body in
// this package.
func (g *Graph) Node(f *types.Func) *Node { return g.Nodes[f] }

// Build constructs the call graph for the given files, which must all
// belong to the package described by info.
func Build(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		Nodes:  make(map[*types.Func]*Node),
		ByDecl: make(map[*ast.FuncDecl]*Node),
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Func: obj, Decl: fd}
			g.Nodes[obj] = n
			g.ByDecl[fd] = n
			if fd.Body != nil {
				collect(n, fd.Body, info)
			}
		}
	}
	return g
}

// collect appends every edge found in body to n.Out.
func collect(n *Node, body *ast.BlockStmt, info *types.Info) {
	// First sweep: note which call expressions are the operands of go and
	// defer statements, so the call visit below can label them.
	stmtKind := make(map[*ast.CallExpr]Kind)
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			stmtKind[x.Call] = Go
		case *ast.DeferStmt:
			stmtKind[x.Call] = Defer
		}
		return true
	})

	// consumed marks expressions already accounted for as the function
	// operand of a direct call (or as a type in a conversion), so the Ref
	// sweep does not double-report them.
	consumed := make(map[ast.Node]bool)

	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			kind := Call
			if k, ok := stmtKind[x]; ok {
				kind = k
			}
			callEdge(n, x, kind, info, consumed)
		case *ast.SelectorExpr:
			if consumed[x] {
				consumed[x.Sel] = true
				return true
			}
			if f, ok := info.Uses[x.Sel].(*types.Func); ok {
				consumed[x.Sel] = true
				n.Out = append(n.Out, refEdge(x.Pos(), f, info, x))
			}
		case *ast.Ident:
			if consumed[x] {
				return true
			}
			if f, ok := info.Uses[x].(*types.Func); ok {
				n.Out = append(n.Out, refEdge(x.Pos(), f, info, nil))
			}
		}
		return true
	})
}

// refEdge builds a Ref edge for a function mentioned outside call
// position. A method value on an interface receiver stays dynamic.
func refEdge(pos token.Pos, f *types.Func, info *types.Info, sel *ast.SelectorExpr) Edge {
	e := Edge{Kind: Ref, Pos: pos, Callee: f}
	if sel != nil {
		if s, ok := info.Selections[sel]; ok && types.IsInterface(s.Recv()) {
			e.Interface = true
		}
	}
	return e
}

// callEdge classifies one call expression and appends the resulting edge,
// if any, to n.Out. Conversions and calls of builtins produce no edge:
// passes that care about builtins (append, make, ...) inspect the syntax
// themselves.
func callEdge(n *Node, call *ast.CallExpr, kind Kind, info *types.Info, consumed map[ast.Node]bool) {
	fun := ast.Unparen(call.Fun)
	// Strip explicit generic instantiation: F[T](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[fun]; ok && tv.IsValue() {
			if _, isFunc := tv.Type.Underlying().(*types.Signature); isFunc {
				fun = ast.Unparen(ix.X)
			}
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Conversion, not a call.
		consumed[fun] = true
		return
	}
	switch f := fun.(type) {
	case *ast.Ident:
		consumed[f] = true
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			n.Out = append(n.Out, Edge{Kind: kind, Pos: call.Pos(), Callee: obj})
		case *types.Builtin:
			// No edge; syntax-level checks handle builtins.
		case nil:
			// Defined here (impossible for a call) or unresolved; ignore.
		default:
			// A variable or parameter of function type.
			n.Out = append(n.Out, Edge{Kind: kind, Pos: call.Pos(),
				Dynamic: fmt.Sprintf("function value %s", f.Name)})
		}
	case *ast.SelectorExpr:
		consumed[f] = true
		consumed[f.Sel] = true
		if s, ok := info.Selections[f]; ok {
			switch s.Kind() {
			case types.MethodVal, types.MethodExpr:
				m := s.Obj().(*types.Func)
				e := Edge{Kind: kind, Pos: call.Pos(), Callee: m}
				if types.IsInterface(s.Recv()) {
					e.Interface = true
				}
				n.Out = append(n.Out, e)
			case types.FieldVal:
				n.Out = append(n.Out, Edge{Kind: kind, Pos: call.Pos(),
					Dynamic: fmt.Sprintf("function-typed field %s", f.Sel.Name)})
			}
			return
		}
		// Package-qualified reference: pkg.F(...) or pkg.Var(...).
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			n.Out = append(n.Out, Edge{Kind: kind, Pos: call.Pos(), Callee: obj})
		case *types.Builtin:
			// e.g. unsafe.Sizeof; no edge.
		default:
			n.Out = append(n.Out, Edge{Kind: kind, Pos: call.Pos(),
				Dynamic: fmt.Sprintf("function value %s", f.Sel.Name)})
		}
	case *ast.FuncLit:
		// Immediately invoked literal: its body is already attributed to
		// the enclosing function by the surrounding walk.
		consumed[f] = true
	default:
		n.Out = append(n.Out, Edge{Kind: kind, Pos: call.Pos(), Dynamic: "function value"})
	}
}
