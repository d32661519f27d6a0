package lint

import (
	"go/types"
	"testing"
)

// Driver-level tests for the interprocedural substrate: call-graph edge
// construction (direct calls, recursion, method values, closures) and taint
// summary propagation.

func loadEngineTestPkg(t *testing.T, importPath, dir string) (*Loader, *Package) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	loader.Overrides = map[string]string{importPath: dir}
	pkg, err := loader.Load(importPath)
	if err != nil {
		t.Fatalf("loading %s from %s: %v", importPath, dir, err)
	}
	return loader, pkg
}

func scopeObj(t *testing.T, pkg *Package, name string) types.Object {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("no package-level object %s", name)
	}
	return obj
}

func TestModuleGraphEdges(t *testing.T) {
	loader, pkg := loadEngineTestPkg(t, "overshadow/internal/core", "testdata/src/callgraph")
	g := buildModuleGraph(loader.order)

	hasEdge := func(from, to types.Object) bool {
		for _, o := range g.Calls[from] {
			if o == to {
				return true
			}
		}
		return false
	}

	entry := scopeObj(t, pkg, "entry")
	a := scopeObj(t, pkg, "a")
	b := scopeObj(t, pkg, "b")
	if !hasEdge(entry, a) {
		t.Error("missing call edge entry -> a")
	}
	if !hasEdge(a, b) || !hasEdge(b, a) {
		t.Error("missing mutual-recursion edges a <-> b")
	}

	// Forward closure over a cycle terminates and contains both sides, and
	// stops at a skipped callee.
	none := func(types.Object) bool { return false }
	reach := g.reachableFrom([]types.Object{entry}, none)
	for _, o := range []types.Object{entry, a, b} {
		if !reach[o] {
			t.Errorf("reachableFrom(entry) misses %s", o.Name())
		}
	}
	if reach := g.reachableFrom([]types.Object{entry}, func(o types.Object) bool { return o == b }); reach[b] || !reach[a] {
		t.Error("reachableFrom(entry) skipping b must hold a and not b")
	}

	// A function referenced as a value is not called, so it is neither a
	// call edge nor in the forward closure.
	viaValue := scopeObj(t, pkg, "viaValue")
	helperMV := scopeObj(t, pkg, "helperMV")
	if hasEdge(viaValue, helperMV) {
		t.Error("function value reference must not be a call edge")
	}
	if g.reachableFrom([]types.Object{viaValue}, none)[helperMV] {
		t.Error("forward closure must not include value-referenced functions")
	}

	// A call inside a function literal is attributed to the enclosing decl.
	viaClosure := scopeObj(t, pkg, "viaClosure")
	closTarget := scopeObj(t, pkg, "closTarget")
	if !hasEdge(viaClosure, closTarget) {
		t.Error("missing closure-attributed call edge viaClosure -> closTarget")
	}

	// A bound method value x.M is not a call of the method.
	methodValue := scopeObj(t, pkg, "methodValue")
	named := scopeObj(t, pkg, "T").(*types.TypeName).Type().(*types.Named)
	var m types.Object
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "M" {
			m = named.Method(i)
		}
	}
	if m == nil {
		t.Fatal("no method T.M")
	}
	if hasEdge(methodValue, m) {
		t.Error("bound method value must not be a call edge")
	}
}

func TestTaintSummaryPropagation(t *testing.T) {
	loader, pkg := loadEngineTestPkg(t, "overshadow/internal/core", "testdata/src/taintengine")
	eng := newTaintEngine(buildModuleGraph(loader.order))
	eng.run()
	sum := func(name string) *funcSummary {
		return eng.summary(scopeObj(t, pkg, name))
	}

	// identity(b) returns b: result 0 conditionally tainted by param 0.
	if s := sum("identity"); len(s.results) != 1 || s.results[0].params&1 == 0 {
		t.Errorf("identity summary: got %+v, want result 0 tainted by param 0", s.results)
	}

	// chain(n, b) forwards b through its own recursion: the fixpoint must
	// converge with the bit for param 1 and without the bit for param 0.
	if s := sum("chain"); s.results[0].params&(1<<1) == 0 {
		t.Errorf("chain summary: result params %b, want bit 1 (recursive forwarding)", s.results[0].params)
	} else if s.results[0].params&1 != 0 {
		t.Errorf("chain summary: int param n must not carry taint (got %b)", s.results[0].params)
	}

	// fill(dst) copies a source into dst: an absolute write through param 0.
	if s := sum("fill"); !s.paramWrites[0].abs {
		t.Errorf("fill summary: paramWrites %+v, want absolute write through param 0", s.paramWrites)
	}

	// sinkParam(d, b) hands b to a raw disk write: paramSinks bit 1.
	if s := sum("sinkParam"); s.paramSinks&(1<<1) == 0 {
		t.Errorf("sinkParam summary: paramSinks %b, want bit 1", s.paramSinks)
	}

	// closureTaint binds a source inside a function literal to a captured
	// variable returned by the enclosing function.
	if s := sum("closureTaint"); !s.results[0].abs {
		t.Errorf("closureTaint summary: result %+v, want absolute taint through closure", s.results[0])
	}
}
