package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed and type-checked (non-test) package.
type Package struct {
	Dir   string
	Path  string // import path, synthesized from the module root
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with a shared file set. Every Load
// type-checks its packages once, in one go/types universe.
type Loader struct {
	fset *token.FileSet
	// ModuleRoot is the directory containing go.mod; import paths are
	// synthesized as modulePath + "/" + relative directory.
	ModuleRoot string
	modulePath string
}

// NewLoader builds a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return &Loader{fset: token.NewFileSet(), ModuleRoot: root, modulePath: modPath}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// Expand resolves package patterns relative to the loader's module root into
// package directories. A trailing "/..." matches the directory and everything
// below it; as in the go tool, directories named testdata, vendor, or
// starting with "." or "_" are skipped by wildcard expansion (but can be
// named explicitly).
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.ModuleRoot, base)
		}
		st, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("analysis: %s is not a directory", pat)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// parsedDir is one directory's package after parsing but before
// type-checking.
type parsedDir struct {
	abs     string
	path    string
	files   []*ast.File
	imports []string // import paths, deduplicated
}

// parseDir parses the non-test files of the package in dir.
func (l *Loader) parseDir(dir string) (*parsedDir, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	seen := make(map[string]bool)
	var imports []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	path, err := l.importPath(abs)
	if err != nil {
		return nil, err
	}
	return &parsedDir{abs: abs, path: path, files: files, imports: imports}, nil
}

// check type-checks a parsed package with the given importer.
func (l *Loader) check(p *parsedDir, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.path, l.fset, p.files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", p.abs, err)
	}
	return &Package{Dir: p.abs, Path: p.path, Fset: l.fset, Files: p.files, Types: tpkg, Info: info}, nil
}

// moduleInternal reports whether imp is a package of the loader's module.
func (l *Loader) moduleInternal(imp string) bool {
	return imp == l.modulePath || strings.HasPrefix(imp, l.modulePath+"/")
}

// chainImporter resolves the imports of one Load: module packages come from
// the load's own type-checked results (registered as each finishes, so
// nothing is checked twice), everything else from compiled export data (the
// gc importer). The chain is serialized by one mutex — resolution is cheap
// (map hits and export-data reads), the expensive types.Config.Check calls
// run outside it.
type chainImporter struct {
	mu     sync.Mutex
	loader *Loader
	loaded map[string]*types.Package
	gc     types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.loaded[path]; p != nil {
		return p, nil
	}
	if c.loader.moduleInternal(path) {
		return nil, fmt.Errorf("analysis: module package %s did not type-check", path)
	}
	p, err := c.gc.Import(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: importing %s: %w", path, err)
	}
	if !p.Complete() {
		return nil, fmt.Errorf("analysis: incomplete export data for %s", path)
	}
	return p, nil
}

func (c *chainImporter) register(path string, p *types.Package) {
	c.mu.Lock()
	c.loaded[path] = p
	c.mu.Unlock()
}

// Load expands the patterns and loads every matched package. Results keep
// the sorted directory order from Expand, so output is deterministic
// regardless of scheduling.
//
// The load is closed under module-internal imports: every module package a
// loaded one imports is parsed too, transitively, so the whole set
// type-checks exactly once, in dependency order, into one go/types universe.
// These context packages are type-checked but not returned — analyzers and
// the call graph see only the matched packages.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	parsed, err := l.parseAll(dirs)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]int, len(parsed))
	for i, p := range parsed {
		byPath[p.path] = i
	}
	// Close the set one wave of missing module imports at a time.
	for wave := parsed; len(wave) > 0; {
		var missing []string
		for _, p := range wave {
			for _, imp := range p.imports {
				if _, ok := byPath[imp]; !ok && l.moduleInternal(imp) {
					byPath[imp] = -1 // claimed; indexed once parsed
					missing = append(missing, filepath.Join(l.ModuleRoot, strings.TrimPrefix(imp, l.modulePath)))
				}
			}
		}
		if wave, err = l.parseAll(missing); err != nil {
			return nil, err
		}
		for _, p := range wave {
			byPath[p.path] = len(parsed)
			parsed = append(parsed, p)
		}
	}
	deps := make([][]int, len(parsed))
	for i, p := range parsed {
		for _, imp := range p.imports {
			if j, ok := byPath[imp]; ok && j >= 0 {
				deps[i] = append(deps[i], j)
			}
		}
	}
	pkgs, err := l.checkAll(parsed, deps)
	if err != nil {
		return nil, err
	}
	return pkgs[:len(dirs)], nil
}

// parseAll parses dirs concurrently, up to GOMAXPROCS at a time.
func (l *Loader) parseAll(dirs []string) ([]*parsedDir, error) {
	parsed := make([]*parsedDir, len(dirs))
	errs := make([]error, len(dirs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, d := range dirs {
		wg.Add(1)
		go func(i int, d string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			parsed[i], errs[i] = l.parseDir(d)
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", dirs[i], err)
		}
	}
	return parsed, nil
}

// checkAll type-checks a dependency-closed set through one chainImporter: a
// package starts once every module package it imports has finished (Go
// forbids import cycles, so every wait ends), with up to GOMAXPROCS checks in
// flight.
func (l *Loader) checkAll(parsed []*parsedDir, deps [][]int) ([]*Package, error) {
	n := len(parsed)
	chain := &chainImporter{
		loader: l,
		loaded: make(map[string]*types.Package, n),
		gc:     importer.ForCompiler(l.fset, "gc", nil),
	}
	pkgs := make([]*Package, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range parsed {
		wg.Add(1)
		go func(i int, p *parsedDir) {
			defer wg.Done()
			defer close(done[i])
			for _, j := range deps[i] {
				<-done[j]
			}
			sem <- struct{}{}
			pkgs[i], errs[i] = l.check(p, chain)
			<-sem
			if errs[i] == nil {
				chain.register(p.path, pkgs[i].Types)
			}
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", parsed[i].abs, err)
		}
	}
	return pkgs, nil
}

// importPath synthesizes the import path of dir from the module path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}
