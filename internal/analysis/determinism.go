package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicRandConstructors are the math/rand and math/rand/v2
// package-level functions that are allowed in non-test code: they take an
// explicit seed (or wrap an explicitly seeded source) rather than consuming
// shared global state. NewPCG is rand/v2's explicit-seed generator
// constructor, used for the per-worker streams of the parallel MCTS
// pipeline.
var deterministicRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"NewPCG":    true,
}

// wallClockFuncs are the time-package functions that read the wall clock.
// All simulated durations in this repository are derived from the what-if
// spend (search.Run's TuningTime and WhatIfTime), so non-test code never
// needs them.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// sortingPkgs are packages whose calls establish a deterministic order over
// a slice populated from map iteration.
var sortingPkgs = map[string]bool{
	"sort":   true,
	"slices": true,
}

// Determinism builds the determinism analyzer: fixed-seed reproducibility
// must not be broken by wall-clock reads, math/rand global state, or map
// iteration order leaking into ordered output.
func Determinism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, global math/rand, and unsorted map-iteration output in non-test code",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			checkForbiddenCalls(pass, f)
			checkMapRangeAppends(pass, f)
		}
	}
	return a
}

func checkForbiddenCalls(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Intn) are fine
		}
		switch funcPkgPath(fn) {
		case "time":
			if wallClockFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock; derive simulated time from the what-if spend instead", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !deterministicRandConstructors[fn.Name()] {
				pass.Reportf(call.Pos(), "global rand.%s consumes shared RNG state; thread an explicitly seeded *rand.Rand instead", fn.Name())
			}
		}
		return true
	})
}

// checkMapRangeAppends flags `for k := range m { s = append(s, ...) }` where
// m is a map and s outlives the loop, unless s is later passed to a sort/
// slices call in the same function: the append order would otherwise inherit
// Go's randomized map iteration order and leak into result slices, CSV rows,
// or candidate ordering.
func checkMapRangeAppends(pass *Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var ranges []*ast.RangeStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok && isMapType(pass.Info, rs.X) {
				ranges = append(ranges, rs)
			}
			return true
		})
		for _, rs := range ranges {
			for _, target := range mapRangeAppendTargets(pass.Info, rs) {
				if sortedAfter(pass.Info, fd.Body, rs.End(), target.obj) {
					continue
				}
				pass.Reportf(target.pos, "append to %q inside map-range inherits random iteration order; sort %q afterwards (or build from a sorted key slice)", target.obj.Name(), target.obj.Name())
			}
		}
	}
}

func isMapType(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

type appendTarget struct {
	obj types.Object
	pos token.Pos
}

// mapRangeAppendTargets returns the objects appended to inside the range
// body via `x = append(x, ...)` where x is declared outside the loop.
func mapRangeAppendTargets(info *types.Info, rs *ast.RangeStmt) []appendTarget {
	var out []appendTarget
	seen := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) || i >= len(as.Lhs) {
				continue
			}
			root := rootIdent(as.Lhs[i])
			if root == nil {
				continue
			}
			obj := info.Uses[root]
			if obj == nil {
				obj = info.Defs[root]
			}
			// Only variables declared outside the loop can carry the
			// map-ordered contents past the loop's end.
			if obj == nil || seen[obj] || obj.Pos() == token.NoPos ||
				(rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()) {
				continue
			}
			seen[obj] = true
			out = append(out, appendTarget{obj: obj, pos: as.Pos()})
		}
		return true
	})
	return out
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootIdent returns the base identifier of expressions like x, x[i], x.f.
func rootIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.Ident:
			return e
		case *ast.IndexExpr:
			x = e.X
		case *ast.SelectorExpr:
			x = e.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether, after pos inside body, obj is passed to a
// sort or slices package call (sort.Strings(x), sort.Slice(x, ...), ...).
func sortedAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || !sortingPkgs[funcPkgPath(fn)] {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && (info.Uses[id] == obj) {
					mentions = true
					return false
				}
				return true
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
