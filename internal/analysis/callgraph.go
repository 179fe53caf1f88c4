package analysis

// callgraph.go builds a module-local call graph over every loaded package.
//
// The loader type-checks a whole load in one go/types universe, so every
// package sees the same *types.Func for a function and interface
// devirtualization is plain types.Implements. Nodes are still keyed by a
// Symbol — "pkgpath.(Recv).Name" — which gives the chargepath fixpoint its
// deterministic visiting order and the reports their names.
//
// Edges cover direct calls, method calls, function/method values (a method
// or function referenced without being called, e.g. passed as a callback),
// and devirtualized interface calls: a call through an interface method adds
// one abstract edge to the interface method plus one Devirt edge to every
// named type in the loaded packages whose pointer implements the interface.
// Package-level var initializers count as the body of the package's init.
// Function values that escape the module and reflection are intentionally
// out of scope (see DESIGN §12).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Symbol is the printable identity of a function or method:
// "pkg/path.Name" for package functions, "pkg/path.(Recv).Name" for methods
// (pointer receivers are stripped), "pkg/path.(Iface).Name" for interface
// methods.
type Symbol string

// symbolOf renders f's symbol.
func symbolOf(f *types.Func) Symbol {
	pkg := funcPkgPath(f)
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return Symbol(pkg + ".(" + named.Obj().Name() + ")." + f.Name())
		}
		// Receiver is an unnamed interface (or other unnamed type): group
		// under a generic bucket; these nodes are abstract anyway.
		return Symbol(pkg + ".(interface)." + f.Name())
	}
	return Symbol(pkg + "." + f.Name())
}

// CGNode is one function in the call graph.
type CGNode struct {
	Sym  Symbol
	Func *types.Func
	Out  []*CGEdge
}

// CGEdge is one call or reference from Caller to Callee. Site is the AST node
// to report at (the call expression, or the referencing identifier for value
// edges).
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	Site   ast.Node
	// Devirt marks an edge added by interface devirtualization: the call site
	// invokes an interface method and Callee is a module implementation.
	Devirt bool
	// ValueRef marks a function or method referenced as a value rather than
	// called (callbacks, method values); the reference may be called later.
	ValueRef bool
}

// CallGraph is the module-wide graph, keyed by Symbol.
type CallGraph struct {
	Nodes map[Symbol]*CGNode
}

// NodeOf returns the node for f, or nil.
func (g *CallGraph) NodeOf(f *types.Func) *CGNode {
	if f == nil {
		return nil
	}
	return g.Nodes[symbolOf(f)]
}

func (g *CallGraph) ensure(f *types.Func) *CGNode {
	sym := symbolOf(f)
	n := g.Nodes[sym]
	if n == nil {
		n = &CGNode{Sym: sym, Func: f}
		g.Nodes[sym] = n
	}
	return n
}

func (g *CallGraph) addEdge(caller *CGNode, callee *types.Func, site ast.Node, devirt, valueRef bool) {
	e := &CGEdge{Caller: caller, Callee: g.ensure(callee), Site: site, Devirt: devirt, ValueRef: valueRef}
	caller.Out = append(caller.Out, e)
}

// recvInterface returns the interface type f is declared on, or nil for
// concrete methods and package functions.
func recvInterface(f *types.Func) *types.Interface {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// buildCallGraph constructs the graph over all loaded packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[Symbol]*CGNode)}

	// Devirtualization targets: the named non-interface types declared in
	// the loaded packages.
	impls := moduleImpls(pkgs)

	for _, pkg := range pkgs {
		// Package-level var initializers run during package initialization,
		// so their calls and references are edges from the package's init
		// node (shared with any declared init functions, which have the same
		// symbol).
		initNode := g.ensure(types.NewFunc(token.NoPos, pkg.Types, "init", types.NewSignatureType(nil, nil, nil, nil, nil, false)))
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					if obj, _ := pkg.Info.Defs[d.Name].(*types.Func); obj != nil {
						g.addEdgesFrom(g.ensure(obj), d.Body, pkg, impls)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						g.addEdgesFrom(initNode, d, pkg, impls)
					}
				}
			}
		}
	}
	return g
}

// addEdgesFrom walks one function body (or var declaration) adding call,
// devirtualization, and value-reference edges. Function literals are
// attributed to the enclosing declaration: a call inside a closure is an edge
// from the declaring function, which matches how the path-sensitive analyzers
// reason about closures (they execute within the dynamic extent of their
// creator or escape with it).
func (g *CallGraph) addEdgesFrom(caller *CGNode, body ast.Node, pkg *Package, impls []*types.Named) {
	// calleeIdents collects the identifiers consumed as call targets, so the
	// value-reference pass below can skip them.
	calleeIdents := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			calleeIdents[fun] = true
		case *ast.SelectorExpr:
			calleeIdents[fun.Sel] = true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil {
			return true
		}
		if iface := recvInterface(fn); iface != nil {
			// Abstract edge to the interface method plus one Devirt edge per
			// module implementation.
			g.addEdge(caller, fn, call, false, false)
			for _, named := range impls {
				if iface.NumMethods() == 0 || !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(named, true, fn.Pkg(), fn.Name())
				if m, ok := obj.(*types.Func); ok {
					g.addEdge(caller, m, call, true, false)
				}
			}
			return true
		}
		g.addEdge(caller, fn, call, false, false)
		return true
	})

	// Value references: identifiers resolving to a function that are not the
	// operand of a call. Covers callbacks (fn arguments), method values, and
	// function-typed struct fields.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		g.addEdge(caller, fn, id, false, true)
		return true
	})
}

// SortedSymbols returns the graph's symbols in lexical order, for
// deterministic iteration in tests and reports.
func (g *CallGraph) SortedSymbols() []Symbol {
	syms := make([]Symbol, 0, len(g.Nodes))
	for s := range g.Nodes {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	return syms
}
