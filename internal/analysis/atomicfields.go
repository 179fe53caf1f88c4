package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicFields builds the atomicfields analyzer: a struct field may not be
// passed by address to a package-level sync/atomic function. A raw atomic
// field is one plain read or write away from racing with its atomic users;
// the typed wrappers (atomic.Int64, atomic.Bool &c.) are accessed only
// through their methods, so that race cannot be written, and copying one is
// already flagged by go vet's copylocks. Local variables are out of scope:
// tests count into them from a few goroutines and read them after a wait.
func AtomicFields() *Analyzer {
	a := &Analyzer{
		Name: "atomicfields",
		Doc:  "struct fields may not be passed to sync/atomic functions; use the typed atomics",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				if funcPkgPath(fn) != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					return true
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					pass.Reportf(call.Pos(), "field %q is passed to atomic.%s; declare it as a typed atomic (atomic.Int64, atomic.Bool, ...)", s.Obj().Name(), fn.Name())
				}
				return true
			})
		}
	}
	return a
}
