// Package hotpath proves, at lint time, that the simulator's per-reference
// paths are transitively allocation-free.
//
// PR 6 made the TLB-hit, local-reference and fault paths allocation-free,
// but enforced it only with testing.AllocsPerRun on the paths the
// benchmarks happen to exercise. One fmt.Sprintf or interface boxing added
// three calls deep silently reintroduces allocations everywhere else. This
// analyzer closes that hole: a function annotated
//
//	//numalint:hotpath
//
// on its doc comment is a hot-path root. The analyzer walks the package
// call graph from every root and reports, with the full call chain from
// the root, any reachable operation that can allocate:
//
//   - composite literals whose address is taken, and map or slice literals;
//   - the allocating builtins append (may grow), make and new;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - values boxed into interfaces at calls, assignments or returns;
//   - map iteration, function literals, method values, go statements;
//   - any call into fmt or reflect.
//
// Calls may only target other hot-path-vetted functions: same-package
// functions are walked transitively; cross-package calls must appear in
// the Contracts table (and the named function must itself be annotated
// //numalint:hotpath in its defining package — the analyzer enforces the
// annotation when it analyzes that package); interface dispatch must
// appear in InterfaceContracts, whose implementations are in turn forced
// to be annotated wherever they are declared. Calls through function
// values and function-typed fields cannot be verified and are reported.
//
// The escape hatch mirrors the determinism pass's hostside directive:
//
//	//numalint:coldpath <why>
//
// On a function's doc comment it sanctions the whole function (a slow
// path hot code may call but that is not itself checked). Free-standing
// inside a body it exempts the innermost enclosing block — the idiom for
// a slow-path branch is to place it as the first comment inside the
// branch. Trailing a statement it exempts just that statement. Arguments
// of panic calls are always exempt: a function on fire may allocate.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"numasim/internal/analysis"
	"numasim/internal/analysis/callgraph"
)

// Analyzer is the hot-path purity check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "prove //numalint:hotpath functions transitively allocation-free",
	Run:  run,
}

// Contracts lists cross-package functions that hot paths may call, keyed
// by types.Func.FullName. Each entry is a promise enforced on both sides:
// call sites may trust it, and when the analyzer reaches the defining
// package it requires the function to exist and carry //numalint:hotpath
// (a stale or unannotated entry is itself a diagnostic).
var Contracts = map[string]bool{
	// mmu: translation, mapping and protection on the per-processor MMU.
	"(*numasim/internal/mmu.MMU).Translate":   true,
	"(*numasim/internal/mmu.MMU).Enter":       true,
	"(*numasim/internal/mmu.MMU).Remove":      true,
	"(*numasim/internal/mmu.MMU).RemoveFrame": true,
	"(*numasim/internal/mmu.MMU).Protect":     true,
	"(*numasim/internal/mmu.MMU).Lookup":      true,
	"(numasim/internal/mmu.Prot).CanRead":     true,
	"(numasim/internal/mmu.Prot).CanWrite":    true,

	// mem: frame accessors and pool alloc/release.
	"(*numasim/internal/mem.Frame).Load8":    true,
	"(*numasim/internal/mem.Frame).Store8":   true,
	"(*numasim/internal/mem.Frame).Load32":   true,
	"(*numasim/internal/mem.Frame).Store32":  true,
	"(*numasim/internal/mem.Frame).Load64":   true,
	"(*numasim/internal/mem.Frame).Store64":  true,
	"(*numasim/internal/mem.Frame).Data":     true,
	"(*numasim/internal/mem.Frame).Zero":     true,
	"(*numasim/internal/mem.Frame).CopyFrom": true,
	"(*numasim/internal/mem.Frame).Kind":     true,
	"(*numasim/internal/mem.Frame).Proc":     true,
	"(*numasim/internal/mem.Frame).Index":    true,
	"(*numasim/internal/mem.Frame).PageSize": true,
	"(*numasim/internal/mem.Pool).Alloc":     true,
	"(*numasim/internal/mem.Pool).Release":   true,
	"(*numasim/internal/mem.Pool).Free":      true,
	"(*numasim/internal/mem.Pool).Size":      true,
	"(*numasim/internal/mem.Memory).Local":   true,
	"(*numasim/internal/mem.Memory).Global":  true,

	// sim: virtual-time accounting on the running thread.
	"(*numasim/internal/sim.Thread).Advance":    true,
	"(*numasim/internal/sim.Thread).AdvanceSys": true,
	"(*numasim/internal/sim.Thread).Clock":      true,
	"(*numasim/internal/sim.Thread).ID":         true,

	// topology: latency-matrix lookups and link charging.
	"(*numasim/internal/topology.Spec).NNodes":             true,
	"(*numasim/internal/topology.Spec).NProcs":             true,
	"(*numasim/internal/topology.Spec).Home":               true,
	"(*numasim/internal/topology.Spec).NodeProcs":          true,
	"(*numasim/internal/topology.Spec).Col":                true,
	"(*numasim/internal/topology.Spec).FetchLatency":       true,
	"(*numasim/internal/topology.Spec).StoreLatency":       true,
	"(*numasim/internal/topology.Spec).Contended":          true,
	"(*numasim/internal/topology.Spec).Dist":               true,
	"(*numasim/internal/topology.Topology).Spec":           true,
	"(*numasim/internal/topology.Topology).Contended":      true,
	"(*numasim/internal/topology.Topology).ChargeTransfer": true,

	// ace: per-reference cost charging and machine accessors.
	"(*numasim/internal/ace.Machine).ChargeFetch":   true,
	"(*numasim/internal/ace.Machine).ChargeStore":   true,
	"(*numasim/internal/ace.Machine).ChargeCopySys": true,
	"(*numasim/internal/ace.Machine).ChargeZeroSys": true,
	"(*numasim/internal/ace.Machine).NNodes":        true,
	"(*numasim/internal/ace.Machine).Home":          true,
	"(*numasim/internal/ace.Machine).NodeProcs":     true,
	"(*numasim/internal/ace.Machine).Topo":          true,
	"(*numasim/internal/ace.Machine).MMU":           true,
	"(*numasim/internal/ace.Machine).Cost":          true,
	"(*numasim/internal/ace.Machine).Proc":          true,
	"(*numasim/internal/ace.Machine).Bus":           true,
	"(*numasim/internal/ace.Machine).PageSize":      true,
	"(*numasim/internal/ace.Machine).PageShift":     true,
	"(*numasim/internal/ace.Machine).VPN":           true,
	"(*numasim/internal/ace.Machine).PageOff":       true,
	"(*numasim/internal/ace.Machine).NProc":         true,
	"(*numasim/internal/ace.Machine).Memory":        true,
	"(*numasim/internal/ace.Processor).Resource":    true,

	// numa: the per-reference protocol entry point and page accessors.
	"(*numasim/internal/numa.Manager).Access":       true,
	"(*numasim/internal/numa.Manager).MaybeSweep":   true,
	"(*numasim/internal/numa.Manager).MarkFilled":   true,
	"(*numasim/internal/numa.Manager).MarkZeroFill": true,
	"(*numasim/internal/numa.Page).ID":              true,
	"(*numasim/internal/numa.Page).Hint":            true,
	"(*numasim/internal/numa.Page).SetHint":         true,
	"(*numasim/internal/numa.Page).Home":            true,
	"(*numasim/internal/numa.Page).SetHome":         true,
	"(*numasim/internal/numa.Page).State":           true,
	"(*numasim/internal/numa.Page).Moves":           true,
	"(*numasim/internal/numa.Page).LastMoveAt":      true,
	"(*numasim/internal/numa.Page).LastRequestAt":   true,
	"(*numasim/internal/numa.Page).EverWritten":     true,
	"(*numasim/internal/numa.Page).Pinned":          true,
	"(*numasim/internal/numa.Page).Authoritative":   true,
	"(*numasim/internal/numa.Page).GlobalFrame":     true,
	"(*numasim/internal/numa.Page).Copy":            true,
	"(*numasim/internal/numa.Page).NodeHeat":        true,
	"(*numasim/internal/numa.Page).MoveHeat":        true,
	"(*numasim/internal/numa.Page).TotalHeat":       true,
	"(*numasim/internal/numa.Page).HotNode":         true,
	"(*numasim/internal/numa.Page).PolicyWord":      true,
	"(*numasim/internal/numa.Page).SetPolicyWord":   true,

	// pmap: VPN-indexed residency lookups and mapping entry.
	"(*numasim/internal/pmap.Pmap).Key":         true,
	"(*numasim/internal/pmap.Pmap).Resident":    true,
	"(*numasim/internal/pmap.Pmap).Enter":       true,
	"(*numasim/internal/pmap.Manager).CopyPage": true,
	"(*numasim/internal/pmap.Manager).ZeroPage": true,

	// simtrace: the (batched) event bus.
	"(*numasim/internal/simtrace.Bus).Enabled": true,
	"(*numasim/internal/simtrace.Bus).Emit":    true,
}

// InterfaceContracts lists interface methods hot paths may dispatch
// through, keyed by the interface method's FullName. The obligation
// transfers to the implementations: whenever the analyzer sees a package
// declare a type implementing the interface, the implementing method must
// itself be annotated //numalint:hotpath and is checked as a root.
var InterfaceContracts = map[string]bool{
	"(numasim/internal/numa.Policy).CachePolicy":                     true,
	"(numasim/internal/numa.Policy).Name":                            true,
	"(numasim/internal/numa.ReconsideringPolicy).ReconsiderInterval": true,
	// The co-placement channel (internal/numa/policyapi.go): thread
	// migration advice and the scheduler's side of it run per protocol
	// request.
	"(numasim/internal/numa.ThreadAdvisor).AdviseThread": true,
	"(numasim/internal/numa.ThreadMover).MigrateHint":    true,
}

// cleanStd are standard-library packages whose exported functions are
// axiomatically allocation-free for our purposes.
var cleanStd = map[string]bool{
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true,
}

// span is a half-open source range [lo, hi] within which hot-path
// obligations are suspended.
type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.lo && p <= s.hi }

type checker struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	// cold marks functions sanctioned whole by a doc-level coldpath
	// directive: callable from hot code, not themselves checked.
	cold map[*types.Func]bool
	// roots are the //numalint:hotpath functions in declaration order.
	roots []*types.Func
	// spans maps each declared function to its exempt source ranges.
	spans map[*types.Func][]span
	// via records the BFS discovery parent for chain diagnostics.
	via map[*types.Func]*types.Func
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:  pass,
		graph: callgraph.Build(pass.Files, pass.TypesInfo),
		cold:  make(map[*types.Func]bool),
		spans: make(map[*types.Func][]span),
		via:   make(map[*types.Func]*types.Func),
	}
	c.collectDirectives()
	c.checkContracts()
	c.enforceInterfaceContracts()
	c.walk()
	return nil
}

// collectDirectives gathers hotpath roots, coldpath sanctions and
// in-body exempt spans from every file.
func (c *checker) collectDirectives() {
	for _, f := range c.pass.Files {
		for _, d := range analysis.Directives(f) {
			switch d.Name {
			case "hotpath":
				fd, ok := d.Node.(*ast.FuncDecl)
				if !ok {
					c.pass.Reportf(d.Pos, "//numalint:hotpath must be on a function's doc comment")
					continue
				}
				if obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.roots = append(c.roots, obj)
				}
			case "coldpath":
				if fd, ok := d.Node.(*ast.FuncDecl); ok {
					if obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						c.cold[obj] = true
					}
					continue
				}
				c.addBodySpan(f, d)
			}
		}
	}
}

// addBodySpan resolves a free-standing coldpath directive to an exempt
// span in its enclosing function: the covering statement when the
// directive trails one, the innermost enclosing block otherwise.
func (c *checker) addBodySpan(file *ast.File, d analysis.Directive) {
	fd := enclosingFunc(file, d.Pos)
	if fd == nil || fd.Body == nil {
		c.pass.Reportf(d.Pos, "free-standing //numalint:coldpath must be inside a function body")
		return
	}
	obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	line := c.pass.Fset.Position(d.Pos).Line

	// A statement whose line range covers the directive line: the
	// directive trails it (or is inside it) and exempts just that
	// statement.
	var stmt ast.Stmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if _, isBlock := s.(*ast.BlockStmt); isBlock {
			return true
		}
		from := c.pass.Fset.Position(s.Pos()).Line
		to := c.pass.Fset.Position(s.End()).Line
		if from <= line && line <= to {
			stmt = s // keep innermost
		}
		return true
	})
	if stmt != nil {
		c.spans[obj] = append(c.spans[obj], span{stmt.Pos(), stmt.End()})
		return
	}

	// Otherwise: the innermost block-like node containing the directive.
	var innermost ast.Node = fd.Body
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			if n.Pos() <= d.Pos && d.Pos <= n.End() {
				innermost = n
			}
		}
		return true
	})
	c.spans[obj] = append(c.spans[obj], span{innermost.Pos(), innermost.End()})
}

// spansOf returns fn's exempt ranges, adding panic-argument spans on
// first use.
func (c *checker) spansOf(fn *types.Func, decl *ast.FuncDecl) []span {
	spans := c.spans[fn]
	if decl.Body != nil {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					spans = append(spans, span{call.Pos(), call.End()})
				}
			}
			return true
		})
	}
	return spans
}

func inSpans(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

// checkContracts verifies that every Contracts entry naming this package
// resolves to a declared, annotated function.
func (c *checker) checkContracts() {
	mine := make(map[string]bool)
	for key := range Contracts {
		if contractPkg(key) == c.pass.Pkg.Path() {
			mine[key] = false
		}
	}
	if len(mine) == 0 {
		return
	}
	rootSet := make(map[*types.Func]bool, len(c.roots))
	for _, r := range c.roots {
		rootSet[r] = true
	}
	for fn, node := range c.graph.Nodes {
		key := fn.FullName()
		if _, ok := mine[key]; !ok {
			continue
		}
		mine[key] = true
		if !rootSet[fn] {
			c.pass.Reportf(node.Decl.Pos(),
				"%s is a cross-package hotpath contract but is not annotated //numalint:hotpath", key)
		}
	}
	for _, key := range sortedKeys(mine) {
		if !mine[key] {
			c.pass.Reportf(c.pass.Files[0].Package,
				"stale hotpath contract: %s names no function declared in %s", key, c.pass.Pkg.Path())
		}
	}
}

// enforceInterfaceContracts turns InterfaceContracts obligations into
// roots: any type this package declares that implements a contract
// interface must annotate its locally-declared implementing method.
func (c *checker) enforceInterfaceContracts() {
	rootSet := make(map[*types.Func]bool, len(c.roots))
	for _, r := range c.roots {
		rootSet[r] = true
	}
	for _, key := range sortedKeys(InterfaceContracts) {
		ifacePkg, ifaceName, method, ok := splitInterfaceKey(key)
		if !ok {
			continue
		}
		pkg := findPackage(c.pass.Pkg, ifacePkg)
		if pkg == nil {
			continue // interface's package not in this compilation's import graph
		}
		obj, ok := pkg.Scope().Lookup(ifaceName).(*types.TypeName)
		if !ok {
			if pkg == c.pass.Pkg {
				c.pass.Reportf(c.pass.Files[0].Package,
					"stale hotpath interface contract: %s names no interface in %s", key, ifacePkg)
			}
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		scope := c.pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			var recv types.Type
			switch {
			case types.Implements(named, iface):
				recv = named
			case types.Implements(types.NewPointer(named), iface):
				recv = types.NewPointer(named)
			default:
				continue
			}
			sel, _, _ := types.LookupFieldOrMethod(recv, true, c.pass.Pkg, method)
			impl, ok := sel.(*types.Func)
			if !ok || impl.Pkg() != c.pass.Pkg {
				continue
			}
			node := c.graph.Node(impl)
			if node == nil {
				continue // promoted method from an embedded foreign type
			}
			if !rootSet[impl] && !c.cold[impl] {
				c.pass.Reportf(node.Decl.Pos(),
					"%s implements hot-path interface method %s and must be annotated //numalint:hotpath (or //numalint:coldpath with a reason)",
					shortName(impl), key)
				rootSet[impl] = true // still walk it so chain diagnostics appear once
			}
			c.roots = appendUnique(c.roots, impl)
		}
	}
}

// walk runs the BFS from every root, checking each newly reached
// function's operations and edges.
func (c *checker) walk() {
	visited := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), c.roots...)
	for _, r := range queue {
		visited[r] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := c.graph.Node(fn)
		if node == nil || node.Decl.Body == nil || c.cold[fn] {
			continue
		}
		spans := c.spansOf(fn, node.Decl)
		chain := c.chain(fn)
		c.scanOps(node.Decl, fn, spans, chain)
		for _, e := range node.Out {
			if inSpans(spans, e.Pos) {
				continue
			}
			target, diag := c.checkEdge(e)
			if diag != "" {
				c.pass.Reportf(e.Pos, "hot path: %s%s", diag, chain)
				continue
			}
			if target != nil && !visited[target] {
				visited[target] = true
				c.via[target] = fn
				queue = append(queue, target)
			}
		}
	}
}

// checkEdge vets one call-graph edge. It returns a same-package target to
// walk into, or a non-empty diagnostic, or neither (the edge is satisfied
// by a contract).
func (c *checker) checkEdge(e callgraph.Edge) (*types.Func, string) {
	if e.Callee == nil {
		return nil, fmt.Sprintf("%s to %s cannot be verified; annotate the slow path //numalint:coldpath or call a named function",
			e.Kind, e.Dynamic)
	}
	name := e.Callee.FullName()
	if e.Interface {
		if InterfaceContracts[name] {
			return nil, ""
		}
		return nil, fmt.Sprintf("interface dispatch %s %s is not a hot-path interface contract", e.Kind, name)
	}
	pkg := e.Callee.Pkg()
	if pkg == c.pass.Pkg {
		if c.cold[e.Callee] {
			return nil, ""
		}
		if n := c.graph.Node(e.Callee); n != nil {
			return e.Callee, ""
		}
		// Declared without syntax in this package (embedding, instantiation).
		if Contracts[name] {
			return nil, ""
		}
		return nil, fmt.Sprintf("%s of %s has no body to verify in this package", e.Kind, name)
	}
	if pkg == nil {
		return nil, fmt.Sprintf("%s of %s cannot be attributed to a package", e.Kind, name)
	}
	path := pkg.Path()
	if cleanStd[path] {
		return nil, ""
	}
	if Contracts[name] {
		return nil, ""
	}
	if path == "fmt" || path == "reflect" {
		return nil, fmt.Sprintf("%s of %s allocates (formatting and reflection are banned on hot paths)", e.Kind, name)
	}
	return nil, fmt.Sprintf("%s of %s which is not hotpath-vetted; add a contract and annotate it, or guard the branch //numalint:coldpath",
		e.Kind, name)
}

// chain renders the BFS discovery path from a root to fn.
func (c *checker) chain(fn *types.Func) string {
	var names []string
	for f := fn; ; {
		names = append(names, shortName(f))
		p, ok := c.via[f]
		if !ok {
			break
		}
		f = p
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return " [hot: " + strings.Join(names, " → ") + "]"
}

// scanOps reports every allocating operation in fn's body outside the
// exempt spans.
func (c *checker) scanOps(decl *ast.FuncDecl, fn *types.Func, spans []span, chain string) {
	sig := fn.Type().(*types.Signature)
	consumed := make(map[ast.Node]bool)
	c.scanBody(decl.Body, sig, spans, chain, consumed)
}

func (c *checker) scanBody(body *ast.BlockStmt, sig *types.Signature, spans []span, chain string, consumed map[ast.Node]bool) {
	info := c.pass.TypesInfo
	report := func(pos token.Pos, format string, args ...any) {
		c.pass.Reportf(pos, "hot path: "+fmt.Sprintf(format, args...)+chain)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if inSpans(spans, n.Pos()) {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "function literal (a closure may allocate)")
			if tv, ok := info.Types[x]; ok {
				if litSig, ok := tv.Type.(*types.Signature); ok {
					c.scanBody(x.Body, litSig, spans, chain, consumed)
				}
			}
			return false
		case *ast.GoStmt:
			report(x.Pos(), "go statement allocates a goroutine")
		case *ast.CallExpr:
			c.scanCall(x, spans, chain, consumed, report)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "composite literal escapes to the heap")
					consumed[lit] = true
				}
			}
		case *ast.CompositeLit:
			if consumed[x] {
				return true
			}
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Map:
				report(x.Pos(), "map literal allocates")
			case *types.Slice:
				report(x.Pos(), "slice literal allocates")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && tv.Value == nil && isString(tv.Type) {
					report(x.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if c.boxes(x.Rhs[i], info.TypeOf(x.Lhs[i])) {
						report(x.Rhs[i].Pos(), "assignment boxes %s into interface %s",
							types.TypeString(info.TypeOf(x.Rhs[i]), types.RelativeTo(c.pass.Pkg)),
							types.TypeString(info.TypeOf(x.Lhs[i]), types.RelativeTo(c.pass.Pkg)))
					}
				}
			}
		case *ast.ReturnStmt:
			res := sig.Results()
			if len(x.Results) == res.Len() {
				for i, r := range x.Results {
					if c.boxes(r, res.At(i).Type()) {
						report(r.Pos(), "return boxes %s into interface %s",
							types.TypeString(info.TypeOf(r), types.RelativeTo(c.pass.Pkg)),
							types.TypeString(res.At(i).Type(), types.RelativeTo(c.pass.Pkg)))
					}
				}
			}
		case *ast.RangeStmt:
			switch info.TypeOf(x.X).Underlying().(type) {
			case *types.Map:
				report(x.Pos(), "iterates a map (nondeterministic order, hidden iterator)")
			case *types.Signature:
				report(x.Pos(), "ranges over a function (iterator closures allocate)")
			}
		case *ast.SelectorExpr:
			if consumed[x] {
				return true
			}
			if s, ok := info.Selections[x]; ok && s.Kind() == types.MethodVal {
				report(x.Pos(), "method value %s allocates a closure", x.Sel.Name)
			}
		}
		return true
	})
}

// scanCall handles the call-site checks: allocating builtins, allocating
// conversions, and arguments boxed into interface parameters.
func (c *checker) scanCall(call *ast.CallExpr, spans []span, chain string, consumed map[ast.Node]bool, report func(token.Pos, string, ...any)) {
	info := c.pass.TypesInfo
	fun := ast.Unparen(call.Fun)
	consumed[fun] = true

	// Conversion?
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		dst := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			switch {
			case isString(dst) && (isByteSlice(src) || isRuneSlice(src)):
				report(call.Pos(), "[]byte/[]rune to string conversion allocates")
			case (isByteSlice(dst) || isRuneSlice(dst)) && isString(src):
				report(call.Pos(), "string to []byte/[]rune conversion allocates")
			case c.boxes(call.Args[0], dst):
				report(call.Pos(), "conversion boxes %s into interface %s",
					types.TypeString(src, types.RelativeTo(c.pass.Pkg)),
					types.TypeString(dst, types.RelativeTo(c.pass.Pkg)))
			}
		}
		return
	}

	// Builtin?
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(call.Pos(), "append may grow its backing array")
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "print", "println":
				report(call.Pos(), "print/println allocate their operands")
			}
			return
		}
	}

	// Boxing at the call boundary, using the call expression's own
	// signature (known even for dynamic calls).
	tv, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if inSpans(spans, arg.Pos()) {
			continue
		}
		var dst types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice through
			}
			dst = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			dst = params.At(i).Type()
		}
		if c.boxes(arg, dst) {
			report(arg.Pos(), "argument boxes %s into interface %s",
				types.TypeString(info.TypeOf(arg), types.RelativeTo(c.pass.Pkg)),
				types.TypeString(dst, types.RelativeTo(c.pass.Pkg)))
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst heap-
// allocates an interface box. Pointer-shaped values (pointers, channels,
// maps, functions, unsafe pointers) are stored directly in the interface
// word and do not allocate; nil and existing interface values do not
// either.
func (c *checker) boxes(expr ast.Expr, dst types.Type) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[ast.Unparen(expr)]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || types.IsInterface(tv.Type) {
		return false
	}
	return !pointerShaped(tv.Type)
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool { return isSliceOf(t, types.Byte) }
func isRuneSlice(t types.Type) bool { return isSliceOf(t, types.Rune) }

func isSliceOf(t types.Type, kind types.BasicKind) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// shortName renders fn as F or (T).M / (*T).M relative to its package.
func shortName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s",
			types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())), fn.Name())
	}
	return fn.Name()
}

// contractPkg extracts the defining package path from a FullName key:
// "pkg/path.F", "(pkg/path.T).M" or "(*pkg/path.T).M".
func contractPkg(key string) string {
	s := key
	if strings.HasPrefix(s, "(") {
		s = strings.TrimPrefix(s[1:], "*")
		if i := strings.Index(s, ")"); i >= 0 {
			s = s[:i]
		}
	}
	i := strings.LastIndex(s, ".")
	if i < 0 {
		return ""
	}
	return s[:i]
}

// splitInterfaceKey parses "(pkg/path.Iface).Method".
func splitInterfaceKey(key string) (pkg, iface, method string, ok bool) {
	if !strings.HasPrefix(key, "(") {
		return "", "", "", false
	}
	rp := strings.Index(key, ")")
	if rp < 0 || rp+2 > len(key) || key[rp+1] != '.' {
		return "", "", "", false
	}
	qual := key[1:rp]
	method = key[rp+2:]
	i := strings.LastIndex(qual, ".")
	if i < 0 {
		return "", "", "", false
	}
	return qual[:i], qual[i+1:], method, method != ""
}

// findPackage locates path in pkg's transitive import graph.
func findPackage(pkg *types.Package, path string) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	seen := map[*types.Package]bool{pkg: true}
	stack := []*types.Package{pkg}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, imp := range p.Imports() {
			if imp.Path() == path {
				return imp
			}
			if !seen[imp] {
				seen[imp] = true
				stack = append(stack, imp)
			}
		}
	}
	return nil
}

func appendUnique(fns []*types.Func, fn *types.Func) []*types.Func {
	for _, f := range fns {
		if f == fn {
			return fns
		}
	}
	return append(fns, fn)
}

// enclosingFunc finds the function declaration whose source range covers
// pos.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// sortedKeys returns m's keys in sorted order, keeping every iteration
// that can influence diagnostics deterministic.
func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
