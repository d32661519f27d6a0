package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAllocAnalyzer produces the worklist for ROADMAP item 4 (an
// allocation-free hot path). The hot path is the forward call-graph closure
// of the dispatch/charge/trace/fault/pagefault entry points — the code that
// runs on every simulated instruction batch, context switch, page fault, and
// span. Inside that closure the analyzer flags every construct that heap-
// allocates per call or iterates a map: make/new, composite literals of
// slice, map, and pointer-taken values, append (growth), map ranges
// (allocation-free but order-randomized and cache-hostile), non-constant
// string concatenation, string<->[]byte conversions, interface boxing at
// call sites, and calls to allocating constructors (crypto New*,
// fmt.Sprintf and friends, and ordered.Keys, whose body the closure does
// not enter).
//
// Error paths are cold by construction: arguments to fmt.Errorf, errors.New,
// and panic are exempt, as are composite literals of error-implementing
// types. Like the rest of the engine, the closure under-approximates dynamic
// calls — a callback invoked through a field is invisible, so a finding
// missing is possible, a spurious one is not (per alloc class; the map-range
// and boxing rules are judgment calls, suppress with //overlint:allow where
// the allocation is deliberate).
var HotPathAllocAnalyzer = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "heap allocations and map ranges on the dispatch/charge/trace/fault fast paths",
	Run:  runHotPathAlloc,
}

// hotRoot names one hot-path entry point: package path, receiver type name
// ("" for plain functions), method/function name.
type hotRoot struct{ pkg, recv, name string }

// hotRoots are the entry points whose forward closure is the hot path. They
// mirror the per-event work of the simulator: the guest scheduler's dispatch
// loop, the syscall trap path, the page-fault handler, address translation,
// the word-sized load and store, world-switch, charging, tracing, fault
// injection, and page crypto.
var hotRoots = []hotRoot{
	{"overshadow/internal/guestos", "Kernel", "switchTo"},
	{"overshadow/internal/guestos", "Kernel", "yield"},
	{"overshadow/internal/guestos", "Kernel", "maybePreempt"},
	{"overshadow/internal/guestos", "Kernel", "dispatchAttr"},
	{"overshadow/internal/guestos", "Kernel", "handleFault"},
	{"overshadow/internal/guestos", "UserCtx", "trap"},
	{"overshadow/internal/guestos", "UserCtx", "Load64"},
	{"overshadow/internal/guestos", "UserCtx", "Store64"},
	{vmmPath, "VMM", "Translate"},
	{vmmPath, "VMM", "Load64"},
	{vmmPath, "VMM", "Store64"},
	{vmmPath, "Thread", "EnterKernel"},
	{vmmPath, "Thread", "ExitKernel"},
	{"overshadow/internal/sim", "VCPU", "Charge"},
	{"overshadow/internal/sim", "VCPU", "ChargeCount"},
	{"overshadow/internal/sim", "VCPU", "ChargeAdd"},
	{"overshadow/internal/sim", "VCPU", "InjectAt"},
	{"overshadow/internal/sim", "VCPU", "Emit"},
	{"overshadow/internal/sim", "VCPU", "EmitSpan"},
	{"overshadow/internal/sim", "VCPU", "Begin"},
	{"overshadow/internal/sim", "SpanHandle", "End"},
	{"overshadow/internal/sim", "VCPU", "SetTask"},
	// Profiler entry points: when profiling is on these run on every charge,
	// span, and dispatch; when it is off the nil-check fast path must stay
	// allocation-free. Rooted explicitly so the contract survives call-edge
	// refactors above them.
	{"overshadow/internal/sim", "World", "profLeaf"},
	{"overshadow/internal/sim", "World", "profPush"},
	{"overshadow/internal/sim", "World", "profPop"},
	{"overshadow/internal/sim", "World", "profDispatch"},
	{"overshadow/internal/sim", "World", "profObserve"},
	{"overshadow/internal/obs", "Profile", "Observe"},
	{"overshadow/internal/obs", "ProfNode", "Child"},
	{"overshadow/internal/obs", "ProfNode", "AddLeaf"},
	{"overshadow/internal/obs", "Histogram", "RecordN"},
	{cloakPath, "Engine", "EncryptPage"},
	{cloakPath, "Engine", "DecryptPage"},
	{"overshadow/internal/fault", "Injector", "At"},
}

func runHotPathAlloc(pass *Pass) {
	g := moduleGraphOf(pass.All)
	hot := hotClosureOf(g)
	for _, fi := range g.Order {
		if fi.Pkg != pass.Pkg || !hot[fi.Obj] {
			continue
		}
		checkHotFunc(pass, fi)
	}
}

// hotClosure memoizes the forward closure alongside the graph it was
// computed from.
var (
	cachedHot      map[types.Object]bool
	cachedHotGraph *ModuleGraph
)

func hotClosureOf(g *ModuleGraph) map[types.Object]bool {
	if cachedHotGraph == g {
		return cachedHot
	}
	var roots []types.Object
	for _, fi := range g.Order {
		for _, r := range hotRoots {
			if fi.Pkg.Path == r.pkg && fi.Decl.Name.Name == r.name && receiverTypeName(fi.Decl) == r.recv {
				roots = append(roots, fi.Obj)
			}
		}
	}
	cachedHot, cachedHotGraph = g.reachableFrom(roots, isAllocatingConstructor), g
	return cachedHot
}

// checkHotFunc flags allocation constructs in one hot function.
func checkHotFunc(pass *Pass, fi *FuncInfo) {
	info := fi.Pkg.Info
	cold := coldSpans(info, fi.Decl.Body)
	selfApp := selfAppends(info, fi.Decl.Body)
	inCold := func(pos token.Pos) bool {
		for _, s := range cold {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}
	fname := fi.Decl.Name.Name
	if r := receiverTypeName(fi.Decl); r != "" {
		fname = r + "." + fname
	}
	report := func(pos token.Pos, what string) {
		if !inCold(pos) {
			pass.Report(pos, "%s on hot path (%s)", what, fname)
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !selfApp[n] {
				checkHotCall(info, n, report)
			}
		case *ast.CompositeLit:
			checkHotCompositeLit(info, n, report)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if !isErrorType(info.Types[n].Type) {
						report(n.Pos(), "heap allocation (&composite literal)")
					}
				}
			}
		case *ast.RangeStmt:
			if isMapType(info.TypeOf(n.X)) {
				report(n.Pos(), "map range (randomized order, cache-hostile)")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[n]; ok && tv.Value == nil && isStringType(tv.Type) {
					report(n.Pos(), "string concatenation")
				}
			}
		}
		return true
	})
}

// checkHotCall classifies one call expression on the hot path.
func checkHotCall(info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	// Conversions: string([]byte) and []byte(string) copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, info.Types[call.Args[0]].Type
			if isStringByteConv(to, from) {
				report(call.Pos(), "string/[]byte conversion (copies)")
			}
		}
		return
	}
	if name, ok := builtinName(info, call); ok {
		switch name {
		case "make":
			report(call.Pos(), "make (heap allocation)")
		case "new":
			report(call.Pos(), "new (heap allocation)")
		case "append":
			report(call.Pos(), "append (growth reallocates)")
		}
		return
	}
	callee := calleeObject(info, call)
	if isAllocatingConstructor(callee) {
		report(call.Pos(), "allocating call ("+calleeLabel(callee)+")")
	}
	checkBoxing(info, call, callee, report)
}

// checkBoxing flags concrete values passed to interface parameters (each
// boxes unless the value is pointer-shaped and escapes analysis elsewhere).
// A generic callee is checked against its instantiated signature: a type
// parameter does not box, but one instantiated with an interface type does.
func checkBoxing(info *types.Info, call *ast.CallExpr, callee types.Object, report func(token.Pos, string)) {
	if callee == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	if inst, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		sig = inst
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			break
		}
		pt := params.At(pi).Type()
		if sig.Variadic() && pi == params.Len()-1 {
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "interface boxing ("+types.TypeString(at, nil)+" to "+types.TypeString(pt, nil)+")")
	}
}

// checkHotCompositeLit flags slice/map composite literals (array and plain
// struct values stay on the stack).
func checkHotCompositeLit(info *types.Info, lit *ast.CompositeLit, report func(token.Pos, string)) {
	tv, ok := info.Types[lit]
	if !ok || isErrorType(tv.Type) {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		report(lit.Pos(), "slice literal (heap allocation)")
	case *types.Map:
		report(lit.Pos(), "map literal (heap allocation)")
	}
}

// coldSpan is a source range exempt from hot-path findings.
type coldSpan struct{ lo, hi token.Pos }

// coldSpans collects the source ranges exempt from hot-path findings: the
// argument ranges of error-construction and panic calls (failure paths are
// cold by construction) and if-bodies guarded by a TraceEnabled() check (the
// protected fast path is the trace-disabled one; allocating to describe a
// span while tracing is the tracer's business).
func coldSpans(info *types.Info, body *ast.BlockStmt) []coldSpan {
	var spans []coldSpan
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && guardedByTraceCheck(ifs.Cond) {
			spans = append(spans, coldSpan{ifs.Body.Pos(), ifs.Body.End()})
			return true
		}
		// The interior of an error value under construction only runs on
		// failure: &ResourceFault{Detail: fmt.Sprintf(...)} is cold even
		// when the enclosing function is hot.
		if lit, ok := n.(*ast.CompositeLit); ok {
			if tv, ok := info.Types[lit]; ok && isErrorType(tv.Type) {
				spans = append(spans, coldSpan{lit.Pos(), lit.End()})
				return true
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := builtinName(info, call); ok && name == "panic" {
			spans = append(spans, coldSpan{call.Pos(), call.End()})
			return true
		}
		callee := calleeObject(info, call)
		if isErrorConstructor(callee) {
			spans = append(spans, coldSpan{call.Pos(), call.End()})
		}
		return true
	})
	return spans
}

// selfAppends collects `x = append(x, ...)` calls: a slice appended back
// into the place it came from grows to steady-state capacity and then stops
// allocating (run queues, free lists, trace rings). Appends into fresh
// locals allocate every call and stay flagged.
func selfAppends(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	skip := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if name, isBuiltin := builtinName(info, call); !isBuiltin || name != "append" {
			return true
		}
		if types.ExprString(as.Lhs[0]) == types.ExprString(call.Args[0]) {
			skip[call] = true
		}
		return true
	})
	return skip
}

// guardedByTraceCheck reports whether an if condition consults a method
// named TraceEnabled or MetricsEnabled (possibly inside && chains).
func guardedByTraceCheck(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "TraceEnabled" || sel.Sel.Name == "MetricsEnabled" {
				found = true
			}
		}
		return !found
	})
	return found
}

// builtinName resolves call's operand to a builtin function name. Builtins
// resolve to *types.Builtin in Uses (or Universe scope), never to a
// declared object.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name, true
	}
	if info.Uses[id] == nil && types.Universe.Lookup(id.Name) != nil {
		return id.Name, true
	}
	return "", false
}

// isErrorConstructor reports whether obj builds an error value.
func isErrorConstructor(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "errors":
		// New/Errorf build errors; As/Is/Join only run while handling one.
		return true
	case "fmt":
		return obj.Name() == "Errorf"
	}
	return false
}

// isAllocatingConstructor reports whether obj is a known allocating helper:
// stdlib New*/Sprint* style constructors outside the module, and
// ordered.Keys, which returns a fresh slice.
func isAllocatingConstructor(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path == orderedPkgPath {
		return obj.Name() == "Keys"
	}
	if path == "fmt" {
		switch obj.Name() {
		case "Sprintf", "Sprint", "Sprintln":
			return true
		}
		return false
	}
	// Stdlib constructors: crypto/aes.NewCipher, crypto/cipher.NewCTR,
	// crypto/sha256.New, crypto/hmac.New, and kin.
	if isSanitizerPkg(obj.Pkg()) {
		return len(obj.Name()) >= 3 && obj.Name()[:3] == "New"
	}
	return false
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConv reports whether a conversion between to and from crosses
// the string/[]byte divide (either direction copies).
func isStringByteConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	isBytes := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return (isStringType(to) && isBytes(from)) || (isBytes(to) && isStringType(from))
}
