package analysis

// unreached keeps the module at its least code: every declared function must
// be reachable over the call graph (call, Devirt, and ValueRef edges) from a
// real entry point. The roots are
//
//   - every package's main and init, and with init the functions referenced
//     from package-level var initializers (the call graph attributes those
//     to the package's init node);
//   - the exported API of the root package, followed transitively through
//     the exported methods, exported fields, and signatures of every module
//     type that API exposes, so a method public only through a type a root
//     signature returns is kept; for an exposed module interface, every
//     module method implementing it is a root;
//   - every method by which a module type satisfies one of the standard
//     library interfaces in stdlibInterfaces, whose callers live outside the
//     module.
//
// A function only a _test.go file calls is reported: the loader does not
// load test files. Packages no loaded package imports (other than main
// packages and the root itself) are test support, such as trace/tracetest,
// and are exempt. A load that lacks the root package, or a module package a
// loaded one imports, cannot see every caller, so the analyzer stays silent
// on it.

import (
	"go/ast"
	"go/types"
	"strings"
)

// stdlibInterfaces are the standard-library interfaces the module's types
// satisfy; "" names the universe scope.
var stdlibInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"sort", "Interface"},
	{"flag", "Value"},
	{"go/types", "Importer"},
}

// Unreached builds the unreached analyzer for the API of package root (the
// module's root package, "indextune", in production).
func Unreached(root string) *Analyzer {
	a := &Analyzer{
		Name: "unreached",
		Doc:  "every declared function must be reachable from main, init, the root package's API, or a stdlib interface method",
	}
	a.Run = func(pass *Pass) {
		r, _ := pass.Facts.Cached("unreached:"+root, func() any { return buildReachability(pass.Facts.pkgs, pass.Facts.CallGraph(), root) }).(*reachability)
		if r == nil || r.exempt[pass.Path] {
			return
		}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					continue
				}
				obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
				if obj == nil || r.reached[symbolOf(obj)] {
					continue
				}
				name := strings.NewReplacer("(", "", ")", "").Replace(strings.TrimPrefix(string(symbolOf(obj)), pass.Path+"."))
				pass.Reportf(fd.Name.Pos(), "%s is unreached from main, init, the %s API and stdlib interface methods; delete it, or move it into a _test.go file if only tests call it", name, root)
			}
		}
	}
	return a
}

// reachability is the run-wide result: the reached symbols and the exempt
// package paths.
type reachability struct {
	reached map[Symbol]bool
	exempt  map[string]bool
}

// buildReachability walks g from the roots, or returns nil when the load
// cannot see every caller.
func buildReachability(pkgs []*Package, g *CallGraph, root string) *reachability {
	loaded := make(map[string]*Package, len(pkgs))
	module := make(map[*types.Package]bool, len(pkgs))
	for _, p := range pkgs {
		loaded[p.Path] = p
		module[p.Types] = true
	}
	if loaded[root] == nil {
		return nil
	}
	imported := make(map[string]bool)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			path := imp.Path()
			if (path == root || strings.HasPrefix(path, root+"/")) && loaded[path] == nil {
				return nil
			}
			imported[path] = true
		}
	}
	r := &reachability{reached: make(map[Symbol]bool), exempt: make(map[string]bool)}
	for _, p := range pkgs {
		if p.Path != root && p.Types.Name() != "main" && !imported[p.Path] {
			r.exempt[p.Path] = true
		}
	}

	var queue []*CGNode
	visit := func(sym Symbol) {
		if r.reached[sym] {
			return
		}
		r.reached[sym] = true
		if n := g.Nodes[sym]; n != nil {
			queue = append(queue, n)
		}
	}
	for _, p := range pkgs {
		visit(Symbol(p.Path + ".init"))
		if p.Types.Name() == "main" {
			visit(Symbol(p.Path + ".main"))
		}
	}

	impls := moduleImpls(pkgs)
	// implementations roots every module method implementing iface.
	implementations := func(iface *types.Interface) {
		for _, named := range impls {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(named, true, m.Pkg(), m.Name()); obj != nil {
					if f, ok := obj.(*types.Func); ok {
						visit(symbolOf(f))
					}
				}
			}
		}
	}
	for _, iface := range stdlibInterfaceTypes(pkgs) {
		implementations(iface)
	}

	// exposed walks a type the root API exposes.
	exposedNamed := make(map[*types.Named]bool)
	var exposed func(t types.Type)
	exposed = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				exposed(t.TypeArgs().At(i))
			}
			o := t.Origin()
			if exposedNamed[o] || !module[o.Obj().Pkg()] {
				return
			}
			exposedNamed[o] = true
			ms := types.NewMethodSet(types.NewPointer(o))
			for i := 0; i < ms.Len(); i++ {
				if f, ok := ms.At(i).Obj().(*types.Func); ok && f.Exported() {
					visit(symbolOf(f))
					exposed(f.Type())
				}
			}
			exposed(o.Underlying())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
			if m, ok := t.(*types.Map); ok {
				exposed(m.Key())
			}
			exposed(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					exposed(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					exposed(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					exposed(m.Type())
				}
			}
			implementations(t)
		}
	}
	scope := loaded[root].Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		if f, ok := obj.(*types.Func); ok {
			visit(symbolOf(f))
		}
		exposed(obj.Type())
	}

	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range n.Out {
			visit(e.Callee.Sym)
		}
	}
	return r
}

// moduleImpls returns the named non-interface types declared at package
// scope in pkgs, in load order.
func moduleImpls(pkgs []*Package) []*types.Named {
	var impls []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			impls = append(impls, named)
		}
	}
	return impls
}

// stdlibInterfaceTypes resolves stdlibInterfaces in the load's universe: a
// package no loaded package reaches through its imports cannot receive a
// module value, so its interfaces are skipped.
func stdlibInterfaceTypes(pkgs []*Package) []*types.Interface {
	byPath := make(map[string]*types.Package)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if byPath[p.Path()] != nil {
			return
		}
		byPath[p.Path()] = p
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	var out []*types.Interface
	for _, si := range stdlibInterfaces {
		scope := types.Universe
		if si.pkg != "" {
			p := byPath[si.pkg]
			if p == nil {
				continue
			}
			scope = p.Scope()
		}
		if tn, ok := scope.Lookup(si.name).(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, iface)
			}
		}
	}
	return out
}
