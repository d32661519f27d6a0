package lint

import (
	"go/ast"
	"go/types"
)

// SMPReadyAnalyzer flags package-level variables of the machine-model
// packages (internal/mach, internal/sim, internal/vmm) that any module
// function writes: such a variable is shared mutable state with no owner,
// common to every World in the process. Sentinel errors and other
// never-written vars are fine.
//
// State reached through a World, VMM, or vCPU handle is not inventoried:
// the scheduler baton lets exactly one goroutine touch a machine at a time,
// and baton handoff is a channel operation, so the race detector pass over
// the multi-vCPU suites in scripts/check.sh checks that serialization
// directly. A package-level variable escapes that argument, because the
// harness runs many machines on concurrent host goroutines.
var SMPReadyAnalyzer = &Analyzer{
	Name: "smpready",
	Doc:  "package-level mutable state in mach/sim/vmm",
	Run:  runSMPReady,
}

// smpPkgs are the packages whose state the rule inventories.
var smpPkgs = map[string]bool{
	machPath:                  true,
	"overshadow/internal/sim": true,
	vmmPath:                   true,
}

// smpWritten marks gated package-level vars with at least one write
// anywhere in the module, memoized per graph.
var (
	cachedSMP      map[*types.Var]bool
	cachedSMPGraph *ModuleGraph
)

func smpWrittenVars(g *ModuleGraph) map[*types.Var]bool {
	if cachedSMPGraph == g {
		return cachedSMP
	}
	written := make(map[*types.Var]bool)
	for _, fi := range g.Order {
		scanVarWrites(fi, written)
	}
	cachedSMP, cachedSMPGraph = written, g
	return written
}

// scanVarWrites records every write to a gated package-level var in one
// function: direct assignment, a field write through the var (v.f = ...),
// and an indexed write into a map or slice it holds (v[k] = ...).
func scanVarWrites(fi *FuncInfo, written map[*types.Var]bool) {
	info := fi.Pkg.Info
	mark := func(x ast.Expr) {
		if id, ok := ast.Unparen(x).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && smpPackageVar(v) {
				written[v] = true
			}
		}
	}
	record := func(lv ast.Expr) {
		switch lv := ast.Unparen(lv).(type) {
		case *ast.Ident:
			mark(lv)
		case *ast.SelectorExpr:
			mark(lv.X)
		case *ast.IndexExpr:
			mark(lv.X)
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(n.X)
		}
		return true
	})
}

// smpPackageVar reports whether v is a package-level variable of a gated
// package.
func smpPackageVar(v *types.Var) bool {
	if v.Pkg() == nil || !smpPkgs[v.Pkg().Path()] || v.IsField() {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

func runSMPReady(pass *Pass) {
	if !smpPkgs[pass.Pkg.Path] {
		return
	}
	written := smpWrittenVars(moduleGraphOf(pass.All))
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if !ok || !written[v] {
			continue
		}
		pass.Report(v.Pos(), "package-level var %s is written at runtime; machine state belongs on a World, VMM, or vCPU", v.Name())
	}
}
