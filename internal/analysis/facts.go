package analysis

// facts.go shares expensive derived structures — per-body CFGs and the
// module call graph — across analyzers and packages within one Run. All
// accessors are safe for concurrent use by parallel per-package passes.

import (
	"go/ast"
	"sync"
)

// Facts carries run-wide derived analysis structures. One Facts instance is
// created per Run over the full set of loaded packages, so interprocedural
// analyzers (chargepath) see the whole module while per-function analyzers
// (reservepair, lockguard) share cached CFGs.
type Facts struct {
	pkgs []*Package

	cfgMu sync.Mutex
	cfgs  map[*ast.BlockStmt]*CFG

	graphOnce sync.Once
	graph     *CallGraph

	cacheMu sync.Mutex
	cache   map[string]any
}

// NewFacts builds an empty fact store over pkgs.
func NewFacts(pkgs []*Package) *Facts {
	return &Facts{pkgs: pkgs, cfgs: make(map[*ast.BlockStmt]*CFG), cache: make(map[string]any)}
}

// CFG returns the (cached) control-flow graph of body.
func (f *Facts) CFG(body *ast.BlockStmt) *CFG {
	f.cfgMu.Lock()
	c := f.cfgs[body]
	f.cfgMu.Unlock()
	if c != nil {
		return c
	}
	c = NewCFG(body)
	f.cfgMu.Lock()
	if prev := f.cfgs[body]; prev != nil {
		c = prev
	} else {
		f.cfgs[body] = c
	}
	f.cfgMu.Unlock()
	return c
}

// CallGraph returns the module call graph, built on first use over all
// loaded packages.
func (f *Facts) CallGraph() *CallGraph {
	f.graphOnce.Do(func() { f.graph = buildCallGraph(f.pkgs) })
	return f.graph
}

// Cached memoizes an arbitrary derived value under key. build runs at most
// once per key; it may call CallGraph but must not call Cached recursively.
func (f *Facts) Cached(key string, build func() any) any {
	f.cacheMu.Lock()
	defer f.cacheMu.Unlock()
	if v, ok := f.cache[key]; ok {
		return v
	}
	v := build()
	f.cache[key] = v
	return v
}
