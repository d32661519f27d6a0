package lint

import (
	"go/ast"
	"go/types"
)

// This file is the shared substrate of the interprocedural analyzers: a
// whole-module static call graph with a function index, built once per
// loaded package set and memoized. cyclecharge introduced the technique
// (closures attributed to their enclosing declaration, static resolution
// through types.Info.Uses); plaintextflow, hotpathalloc, and smpready all
// build on the same graph, so it lives here and is computed once.
//
// The graph is an under-approximation on dynamic calls: a call through a
// function value, interface method, or field-stored callback resolves to no
// edge, and referencing a function as a value (x.M, a callback argument)
// is not a call.

// FuncInfo indexes one declared function or method of the module.
type FuncInfo struct {
	Obj  types.Object
	Decl *ast.FuncDecl
	Pkg  *Package
}

// ModuleGraph is the module-wide static call graph.
type ModuleGraph struct {
	// Funcs indexes every declared function with a body.
	Funcs map[types.Object]*FuncInfo
	// Order lists the same functions in load order (package, file, decl) so
	// fixpoint passes and reports are deterministic.
	Order []*FuncInfo
	// Calls maps caller -> statically resolved callees (in source order,
	// duplicates preserved; closures are attributed to the enclosing decl).
	Calls map[types.Object][]types.Object
}

// buildModuleGraph scans every function declaration of the loaded packages.
func buildModuleGraph(pkgs []*Package) *ModuleGraph {
	g := &ModuleGraph{
		Funcs: make(map[types.Object]*FuncInfo),
		Calls: make(map[types.Object][]types.Object),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := pkg.Info.Defs[fd.Name]
				if caller == nil {
					continue
				}
				fi := &FuncInfo{Obj: caller, Decl: fd, Pkg: pkg}
				g.Funcs[caller] = fi
				g.Order = append(g.Order, fi)
				g.scanBody(pkg.Info, caller, fd.Body)
			}
		}
	}
	return g
}

// scanBody records the call edges from caller's body.
func (g *ModuleGraph) scanBody(info *types.Info, caller types.Object, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeObject(info, call); callee != nil {
				g.Calls[caller] = append(g.Calls[caller], callee)
			}
		}
		return true
	})
}

// reachableFrom computes the forward closure over call edges from the given
// roots (the roots themselves included). It does not enter a callee for
// which skip is true.
func (g *ModuleGraph) reachableFrom(roots []types.Object, skip func(types.Object) bool) map[types.Object]bool {
	reach := make(map[types.Object]bool)
	work := append([]types.Object(nil), roots...)
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		if o == nil || reach[o] || skip(o) {
			continue
		}
		reach[o] = true
		work = append(work, g.Calls[o]...)
	}
	return reach
}

// canReach propagates a direct fact set backward over call edges to a
// fixpoint: the result maps every function that can reach a function in
// direct without calling through a callee for which skip is true. The graph
// is small (one module), so the quadratic worst case is irrelevant.
func (g *ModuleGraph) canReach(direct map[types.Object]bool, skip func(types.Object) bool) map[types.Object]bool {
	reach := make(map[types.Object]bool, len(direct))
	for o := range direct {
		reach[o] = true
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range g.Calls {
			if reach[caller] {
				continue
			}
			for _, callee := range callees {
				if reach[callee] && !skip(callee) {
					reach[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return reach
}

// moduleGraphOf returns the memoized graph for a loaded package set. The
// driver runs every analyzer over the same slice, so identity of the slice
// (first element + length) is a sufficient cache key; want-tests use their
// own loaders and get their own graphs.
func moduleGraphOf(pkgs []*Package) *ModuleGraph {
	if len(pkgs) == 0 {
		return buildModuleGraph(nil)
	}
	if cachedGraph != nil && cachedGraphKey == pkgs[len(pkgs)-1] && cachedGraphLen == len(pkgs) {
		return cachedGraph
	}
	g := buildModuleGraph(pkgs)
	cachedGraph, cachedGraphKey, cachedGraphLen = g, pkgs[len(pkgs)-1], len(pkgs)
	return g
}

var (
	cachedGraph    *ModuleGraph
	cachedGraphKey *Package
	cachedGraphLen int
)
