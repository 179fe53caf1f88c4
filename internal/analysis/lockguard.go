package analysis

// lockguard enforces the repository's mutex-discipline annotations:
//
//	type cacheShard struct {
//		mu sync.RWMutex
//		m  map[Pair]float64 // guarded by: mu
//	}
//
// A field annotated "// guarded by: <mutex>" (doc or line comment; <mutex>
// must name a sibling field) may only be accessed in blocks where a
// <base>.<mutex>.Lock() — or RLock() for reads — is in force on every path,
// or from methods annotated "// locked: <mutex>" (declared to be entered
// with the lock held). The check is a forward available-locks dataflow over
// the CFG: Lock/RLock generate a held-lock fact keyed by the canonical base
// expression, Unlock/RUnlock kill it, joins intersect, and every guarded
// access is evaluated against the fixpoint. Writes require the write lock;
// RLock only licenses reads.
//
// Fields annotated "// owned by: <role>" encode single-goroutine ownership
// without a mutex (the coordinator state of the parallel MCTS pipeline):
// they may not be accessed from goroutine literals spawned with go, where
// another goroutine would race the owner.
//
// Exemptions: a base object assigned from a composite literal in the same
// function is pre-publication (constructors initialize guarded fields before
// any other goroutine can hold a reference); composite-literal keys
// initialize rather than access. Aliasing through different base expressions
// and locks passed by pointer are out of scope (DESIGN §12).

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

var (
	guardedByRe = regexp.MustCompile(`guarded by:\s*([A-Za-z_][A-Za-z0-9_]*)`)
	ownedByRe   = regexp.MustCompile(`owned by:\s*([A-Za-z_][A-Za-z0-9_]*)`)
	lockedRe    = regexp.MustCompile(`locked:\s*([A-Za-z_][A-Za-z0-9_]*)`)
)

const (
	lockR uint8 = 1 << iota
	lockW
)

// lockAnnots holds one package's parsed annotations.
type lockAnnots struct {
	guarded map[types.Object]string // field -> sibling mutex field name
	owned   map[types.Object]string // field -> owner role
}

// collectLockAnnots parses field annotations from every struct declaration,
// reporting annotations whose mutex does not name a sibling field.
func collectLockAnnots(pass *Pass) *lockAnnots {
	an := &lockAnnots{guarded: make(map[types.Object]string), owned: make(map[types.Object]string)}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			siblings := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					siblings[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				text := ""
				if fld.Doc != nil {
					text += fld.Doc.Text()
				}
				if fld.Comment != nil {
					text += fld.Comment.Text()
				}
				if m := guardedByRe.FindStringSubmatch(text); m != nil {
					if !siblings[m[1]] {
						pass.Reportf(fld.Pos(), "guarded by: %s names no sibling field in this struct", m[1])
					} else {
						for _, name := range fld.Names {
							if obj := pass.Info.Defs[name]; obj != nil {
								an.guarded[obj] = m[1]
							}
						}
					}
				}
				if m := ownedByRe.FindStringSubmatch(text); m != nil {
					for _, name := range fld.Names {
						if obj := pass.Info.Defs[name]; obj != nil {
							an.owned[obj] = m[1]
						}
					}
				}
			}
			return true
		})
	}
	return an
}

// lockKey canonicalizes a held-lock fact: root object identity plus the
// printed base path plus the mutex field name.
func lockKey(info *types.Info, base ast.Expr, mutex string) (string, bool) {
	root := rootIdentObj(info, base)
	if root == nil {
		return "", false
	}
	return types.ExprString(ast.Unparen(base)) + "." + mutex, true
}

// rootIdentObj returns the object of the leftmost identifier of a selector
// or index chain, or nil when the base is not rooted in an identifier.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// lockEvent is one ordered event in a block: a lock-set change or a guarded
// field access.
type lockEvent struct {
	pos token.Pos
	// lock-set change
	key  string // canonical "base.mutex"
	gen  uint8  // lockR|lockW on Lock, lockR on RLock, 0 on access
	kill bool   // Unlock/RUnlock
	// guarded access
	field  types.Object
	access ast.Expr // the selector expression
	write  bool
	base   ast.Expr // selector base, for the required-key computation
}

// mutexCallParts decomposes base.mutex.Lock()-shaped calls.
func mutexCallParts(call *ast.CallExpr) (base ast.Expr, mutex, op string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", "", false
	}
	inner, okInner := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okInner {
		return nil, "", "", false
	}
	return inner.X, inner.Sel.Name, op, true
}

// lockguardChecker runs the per-function analysis.
type lockguardChecker struct {
	pass    *Pass
	annots  *lockAnnots
	parents map[ast.Node]ast.Node
	fresh   map[types.Object]bool
}

// fieldObjOf resolves a selector to the field object it accesses, or nil.
func fieldObjOf(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj()
	}
	if o, ok := info.Uses[sel.Sel].(*types.Var); ok && o.IsField() {
		return o
	}
	return nil
}

// isWriteAccess classifies a guarded selector: assignment LHS (directly or
// through index/star chains), IncDec operand, or delete() target.
func (c *lockguardChecker) isWriteAccess(sel ast.Expr) bool {
	child := ast.Node(sel)
	for p := c.parents[child]; p != nil; p = c.parents[child] {
		switch p := p.(type) {
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == child
		case *ast.IndexExpr:
			if p.X != child {
				return false
			}
		case *ast.StarExpr, *ast.ParenExpr:
		case *ast.CallExpr:
			if id, ok := ast.Unparen(p.Fun).(*ast.Ident); ok && id.Name == "delete" &&
				len(p.Args) > 0 && p.Args[0] == child {
				return true
			}
			return false
		case *ast.UnaryExpr:
			// Taking the address may be used to mutate; stay conservative.
			return p.Op == token.AND
		default:
			return false
		}
		child = p
	}
	return false
}

// blockLockEvents collects one block's events in source order, mirroring the
// subtree conventions of the CFG builder (clause bodies and range bodies
// live in other blocks; deferred calls run at exit but their arguments are
// evaluated at the defer site; function literals are analyzed separately).
func (c *lockguardChecker) blockLockEvents(b *Block, isExit bool) []lockEvent {
	var evs []lockEvent
	addCall := func(call *ast.CallExpr) bool {
		base, mutex, op, ok := mutexCallParts(call)
		if !ok {
			return false
		}
		key, ok := lockKey(c.pass.Info, base, mutex)
		if !ok {
			return false
		}
		switch op {
		case "Lock":
			evs = append(evs, lockEvent{pos: call.Pos(), key: key, gen: lockR | lockW})
		case "RLock":
			evs = append(evs, lockEvent{pos: call.Pos(), key: key, gen: lockR})
		case "Unlock", "RUnlock":
			evs = append(evs, lockEvent{pos: call.Pos(), key: key, kill: true})
		}
		return true
	}
	var scan func(n ast.Node)
	scan = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			for _, arg := range n.Call.Args {
				scan(arg)
			}
			return
		case *ast.CaseClause:
			for _, e := range n.List {
				scan(e)
			}
			return
		case *ast.CommClause:
			scan(n.Comm)
			return
		case *ast.RangeStmt:
			scan(n.Key)
			scan(n.Value)
			scan(n.X)
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return isExit && m != n
			case *ast.KeyValueExpr:
				// Composite-literal keys initialize fields; only the value
				// side is an access.
				scan(m.Value)
				return false
			case *ast.CallExpr:
				if addCall(m) {
					return false
				}
				return true
			case *ast.SelectorExpr:
				fieldObj := fieldObjOf(c.pass.Info, m)
				if fieldObj == nil {
					return true
				}
				mutex, guarded := c.annots.guarded[fieldObj]
				if !guarded {
					return true
				}
				if c.fresh[rootIdentObj(c.pass.Info, m.X)] {
					return true
				}
				key, ok := lockKey(c.pass.Info, m.X, mutex)
				if !ok {
					return true
				}
				evs = append(evs, lockEvent{
					pos: m.Pos(), field: fieldObj, access: m, base: m.X,
					key: key, write: c.isWriteAccess(m),
				})
				return true
			}
			return true
		})
	}
	for _, n := range b.Nodes {
		scan(n)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// heldSet maps canonical lock keys to the capability held (lockR|lockW).
type heldSet map[string]uint8

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h heldSet) equal(o heldSet) bool {
	if len(h) != len(o) {
		return false
	}
	for k, v := range h {
		if o[k] != v {
			return false
		}
	}
	return true
}

func intersectHeld(a, b heldSet) heldSet {
	out := make(heldSet)
	for k, va := range a {
		if vb, ok := b[k]; ok {
			out[k] = va & vb
		}
	}
	return out
}

// checkLockBody runs the available-locks dataflow over one body and reports
// unguarded accesses.
func (c *lockguardChecker) checkLockBody(body *ast.BlockStmt, entry heldSet) {
	cfg := c.pass.Facts.CFG(body)
	events := make([][]lockEvent, len(cfg.Blocks))
	any := false
	for i, b := range cfg.Blocks {
		events[i] = c.blockLockEvents(b, b == cfg.Exit)
		for _, ev := range events[i] {
			if ev.field != nil {
				any = true
			}
		}
	}
	if !any {
		return
	}

	transfer := func(b *Block, in heldSet) heldSet {
		out := in.clone()
		for _, ev := range events[b.Index] {
			if ev.field != nil {
				continue
			}
			if ev.kill {
				delete(out, ev.key)
			} else {
				out[ev.key] |= ev.gen
			}
		}
		return out
	}

	in := make([]heldSet, len(cfg.Blocks))
	in[cfg.Entry.Index] = entry
	work := []*Block{cfg.Entry}
	queued := make([]bool, len(cfg.Blocks))
	queued[cfg.Entry.Index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := transfer(b, in[b.Index])
		for _, succ := range b.Succs {
			to := succ.Index
			var next heldSet
			if in[to] == nil {
				next = out.clone()
			} else {
				next = intersectHeld(in[to], out)
			}
			if in[to] == nil || !next.equal(in[to]) {
				in[to] = next
				if !queued[to] {
					queued[to] = true
					work = append(work, succ)
				}
			}
		}
	}

	for _, b := range cfg.Blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		held := in[b.Index].clone()
		for _, ev := range events[b.Index] {
			if ev.field == nil {
				if ev.kill {
					delete(held, ev.key)
				} else {
					held[ev.key] |= ev.gen
				}
				continue
			}
			need := lockR
			verb := "read"
			if ev.write {
				need = lockW
				verb = "written"
			}
			mutex := c.annots.guarded[ev.field]
			if held[ev.key]&need == 0 {
				if ev.write && held[ev.key]&lockR != 0 {
					c.pass.Reportf(ev.pos, "field %s is %s under RLock; writes require %s.Lock()",
						ev.field.Name(), verb, mutex)
				} else {
					c.pass.Reportf(ev.pos, "field %s (guarded by: %s) is %s without holding %s",
						ev.field.Name(), mutex, verb, mutex)
				}
			}
		}
	}
}

// checkOwned reports accesses to owner-annotated fields from go-spawned
// function literals, where a second goroutine would race the owning one.
func (c *lockguardChecker) checkOwned(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			sel, ok := m.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fieldObj := fieldObjOf(c.pass.Info, sel)
			if fieldObj == nil {
				return true
			}
			if role, owned := c.annots.owned[fieldObj]; owned {
				c.pass.Reportf(sel.Pos(), "field %s is owned by the %s goroutine (owned by: %s) and must not be accessed from a spawned goroutine",
					fieldObj.Name(), role, role)
			}
			return true
		})
		return true
	})
}

// collectFresh finds local variables assigned from composite literals in the
// body: values not yet published to other goroutines.
func collectFresh(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	isLit := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		_, ok := e.(*ast.CompositeLit)
		return ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || !isLit(as.Rhs[i]) {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// LockGuard builds the lock-discipline analyzer.
func LockGuard() *Analyzer {
	a := &Analyzer{
		Name: "lockguard",
		Doc:  "fields annotated 'guarded by: mu' require the mutex held; 'owned by:' fields may not leak into spawned goroutines",
	}
	a.Run = func(pass *Pass) {
		annots := collectLockAnnots(pass)
		if len(annots.guarded) == 0 && len(annots.owned) == 0 {
			return
		}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c := &lockguardChecker{
					pass:    pass,
					annots:  annots,
					parents: buildParents(fd.Body),
					fresh:   collectFresh(pass.Info, fd.Body),
				}
				entry := make(heldSet)
				if fd.Doc != nil && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
					if m := lockedRe.FindStringSubmatch(fd.Doc.Text()); m != nil {
						recv := fd.Recv.List[0].Names[0]
						entry[recv.Name+"."+m[1]] = lockR | lockW
					}
				}
				c.checkLockBody(fd.Body, entry)
				c.checkOwned(fd.Body)
				// Non-deferred function literals run with an unknown lock
				// state; analyze them with an empty entry set.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						lc := &lockguardChecker{
							pass:    pass,
							annots:  annots,
							parents: buildParents(fl.Body),
							fresh:   collectFresh(pass.Info, fl.Body),
						}
						lc.checkLockBody(fl.Body, make(heldSet))
					}
					return true
				})
			}
		}
	}
	return a
}

// buildParents maps each node in the subtree to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
