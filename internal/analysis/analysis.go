// Package analysis is a small static-analysis framework, in the spirit of
// golang.org/x/tools/go/analysis but built only on the standard library
// (go/parser + go/types + go/importer), that machine-checks the repository's
// core invariants:
//
//   - budgetguard: enumeration algorithms may not import the optimizer
//     package, nor may internal/trace (DESIGN §2, §6). Derived-bound answers
//     and stop decisions are budget-free by contract, so no code may charge
//     budget inside a CheckStop success branch or the decision block
//     emitting a derived-bound or stop trace event (DESIGN §10, §11).
//   - determinism: fixed-seed runs must be reproducible, so non-test code may
//     not read the wall clock or use math/rand's seeded-by-default global
//     functions, and map iteration may not feed ordered output without an
//     intervening sort.
//   - atomicfields: a struct field accessed through sync/atomic anywhere must
//     be accessed atomically everywhere (the PR-1 counter discipline in
//     internal/whatif and internal/search).
//   - panicguard: panics in non-test library code must either be converted to
//     returned errors (user-reachable input) or carry an "// invariant:"
//     comment stating why they are unreachable.
//   - reservepair: path-sensitive dataflow over the CFG proving every batch
//     a function reserves with search.Session.ReserveBatch is settled by
//     exactly one CommitReservedBatch on every path to function exit
//     (DESIGN §12).
//   - chargepath: interprocedural whole-call-graph check that every module
//     path reaching whatif.Optimizer cost methods — a direct call included —
//     passes through a search.Session charging method (DESIGN §12).
//   - lockguard: fields annotated "// guarded by: mu" may only be accessed
//     under that mutex (or from methods annotated "// locked: mu"); fields
//     annotated "// owned by: <role>" may not be touched from spawned
//     goroutine literals (DESIGN §12).
//   - unreached: every declared function must be reachable over the call
//     graph from main, init, the root package's exported API, or a
//     standard-library interface method (DESIGN §12).
//
// The CFG/call-graph engine behind the path-sensitive analyzers and
// unreached lives in
// cfg.go, callgraph.go, and facts.go. The cmd/indexlint driver runs all
// analyzers over package patterns and exits non-zero on findings; CI runs it
// as a blocking step.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one type-checked package and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// Path is the package's import path (testdata packages get a synthetic
	// path rooted at the module).
	Path string
	Pkg  *types.Package
	Info *types.Info
	// Facts shares run-wide derived structures (CFGs, the module call graph)
	// across analyzers and packages; Run always sets it.
	Facts *Facts

	diags *[]Diagnostic
	// ignores maps "file:line" to the set of analyzer names suppressed there
	// (an empty name set suppresses every analyzer).
	ignores map[string]map[string]bool
}

// Reportf records a finding at pos unless an ignore directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignoredAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoredAt reports whether an "//indexlint:ignore <names>" directive covers
// the diagnostic's line. buildIgnores registers the directive's own line, the
// line below it, and — when the directive is a doc comment on a statement or
// declaration — every line of that statement's extent, so the lookup here is
// exact.
func (p *Pass) ignoredAt(pos token.Position) bool {
	names, ok := p.ignores[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
	if !ok {
		return false
	}
	return len(names) == 0 || names[p.Analyzer.Name]
}

// CommentsOnOrAbove returns the text of every comment in comment groups that
// either touch the same line as pos or end on the line directly above it, so
// a multi-line annotation is returned whole. Analyzers use it for annotation
// conventions like panicguard's "// invariant:".
func (p *Pass) CommentsOnOrAbove(pos token.Pos) []string {
	position := p.Fset.Position(pos)
	var out []string
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename != position.Filename {
			continue
		}
		for _, cg := range f.Comments {
			start := p.Fset.Position(cg.Pos()).Line
			end := p.Fset.Position(cg.End()).Line
			if (start <= position.Line && position.Line <= end) || end == position.Line-1 {
				for _, c := range cg.List {
					out = append(out, c.Text)
				}
			}
		}
	}
	return out
}

// ignoreDirective is the comment prefix suppressing findings:
// "//indexlint:ignore <analyzer>[,<analyzer>...] [reason]". A directive
// covers its own line, the line directly below, and — when written as a doc
// comment directly above a statement or declaration — that statement's whole
// extent. An empty name list suppresses every analyzer.
const ignoreDirective = "indexlint:ignore"

// buildIgnores scans the files' comments for ignore directives. known is the
// set of registered analyzer names for this run; directives naming an unknown
// analyzer produce a warning diagnostic (attributed to the pseudo-analyzer
// "indexlint") instead of being silently ineffective.
func buildIgnores(fset *token.FileSet, files []*ast.File, known map[string]bool) (map[string]map[string]bool, []Diagnostic) {
	ignores := make(map[string]map[string]bool)
	var warnings []Diagnostic
	register := func(file string, line int, names []string) {
		key := fmt.Sprintf("%s:%d", file, line)
		if ignores[key] == nil {
			ignores[key] = make(map[string]bool)
		}
		for _, n := range names {
			ignores[key][n] = true
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				rest := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
				var names []string
				if len(rest) > 0 {
					for _, n := range strings.Split(rest[0], ",") {
						if n = strings.TrimSpace(n); n != "" {
							names = append(names, n)
						}
					}
				}
				pos := fset.Position(c.Pos())
				for _, n := range names {
					if known != nil && !known[n] {
						warnings = append(warnings, Diagnostic{
							Pos:      pos,
							Analyzer: "indexlint",
							Message:  fmt.Sprintf("ignore directive names unknown analyzer %q (registered: %s)", n, strings.Join(sortedNames(known), ", ")),
						})
					}
				}
				register(pos.Filename, pos.Line, names)
				register(pos.Filename, pos.Line+1, names)
				// Doc-comment attachment: when a statement or declaration
				// starts on the line directly below, the directive covers its
				// full (possibly multi-line) extent.
				if start, end, ok := nodeExtent(fset, f, pos.Line+1); ok {
					for line := start; line <= end; line++ {
						register(pos.Filename, line, names)
					}
				}
			}
		}
	}
	return ignores, warnings
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nodeExtent finds the outermost statement or declaration starting on the
// given line of f and returns its start/end lines. ast.Inspect visits parents
// before children, so the first hit is the outermost node.
func nodeExtent(fset *token.FileSet, f *ast.File, line int) (start, end int, ok bool) {
	var found ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found != nil {
			return false
		}
		switch n.(type) {
		case ast.Stmt, ast.Decl:
		default:
			return true
		}
		s := fset.Position(n.Pos()).Line
		if s == line {
			found = n
			return false
		}
		// Prune subtrees that cannot contain a node starting on line.
		if s > line || fset.Position(n.End()).Line < line {
			return false
		}
		return true
	})
	if found == nil {
		return 0, 0, false
	}
	return fset.Position(found.Pos()).Line, fset.Position(found.End()).Line, true
}

// Run applies the analyzers to the loaded packages and returns all findings
// sorted by position then analyzer name, for deterministic driver output.
// Packages are analyzed concurrently (up to GOMAXPROCS at a time); analyzers
// within one package run sequentially over a package-local diagnostic slice,
// so no analyzer needs to be aware of the parallelism. A shared Facts store
// gives every pass the same cached CFGs and module call graph.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := NewFacts(pkgs)
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ignores, warnings := buildIgnores(pkg.Fset, pkg.Files, known)
			diags := warnings
			for _, a := range analyzers {
				pass := &Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					Path:     pkg.Path,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					Facts:    facts,
					diags:    &diags,
					ignores:  ignores,
				}
				a.Run(pass)
			}
			perPkg[i] = diags
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// DefaultAnalyzers returns the full analyzer suite with the repository's
// production configuration.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewBudgetGuard(nil),
		Determinism(),
		AtomicFields(),
		PanicGuard(),
		ReservePair(),
		ChargePath(),
		LockGuard(),
		Unreached("indextune"),
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes (via a
// plain identifier, a package selector, or a method selector), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// funcPkgPath returns the import path of the package declaring f ("" for
// builtins).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}
