package lint

// The hotalloc analyzer.  The engine's bench gate holds the hot path
// to a fixed allocation budget per block (5.9 allocs per committed
// block on the Figure 6 grid, BENCH_sim.json; the set-up share of it is
// held by sim's TestChipSetupBudget); this analyzer turns the number
// into a named static invariant: starting from the //lint:hot root
// event-loop entries, it walks the call graph and flags every
// allocation site that is not proven recycled.
//
// Recycling evidence, in order of preference:
//
//   - the poolguard facts: a type served by a package sync.Pool;
//   - the retained-buffer idiom: a struct field (or pointer-to-slice
//     named type) that is somewhere re-sliced (`x = x[:0]`,
//     `*h = a[:n]`) or assigned from an in-place filter alias — the
//     module's free-list and scratch-buffer pattern, where append/make
//     only grow capacity that is kept;
//   - reuse aliases: a local assigned from a slice expression
//     (`kept := b.entries[:0]`) or from a retained field writes into
//     kept backing store, so appends to it and cap-guarded makes of it
//     are growth, not churn;
//   - guarded init: an allocation inside an `x == nil` or `cap(x) < n`
//     guard is the lazy-init / amortized-growth idiom — it runs once
//     (or O(log n) times), not per event.
//
// Flagged categories: escaping composite literals (&T{}, slice and map
// literals), make/new, append to a non-retained destination, capturing
// closures that escape their function (a FuncLit bound to a local
// helper variable is the non-escaping local-control-flow idiom and a
// non-capturing literal is a static funcval; neither allocates), string
// concatenation and allocating stdlib (fmt/errors/strconv/strings)
// calls, interface boxing of non-pointer values at module-local call
// sites, and calls to constructors (New*/new*) — a constructor is
// one-time code by convention, so the hot-path *call* is the finding
// and its body is not traversed.  //lint:hot cold functions (fault
// paths, one-time decode) are not traversed either, and calls to them
// are exempt from the boxing check: evaluating a cold call's variadic
// arguments is itself cold-path work.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc flags unpooled allocation in code reachable from the
// per-cycle event-loop roots.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocation sites reachable from //lint:hot root event loops must be pooled or retained",
	Run:  runHotAlloc,
}

func runHotAlloc(m *Module, pkg *Package, report ReportFunc) {
	diags := m.Fact("hotalloc", func() any { return hotAllocModule(m) }).([]moduleDiag)
	for _, d := range diags {
		if d.pkg == pkg {
			report(d.pos, "%s", d.msg)
		}
	}
}

func hotAllocModule(m *Module) []moduleDiag {
	facts := collectHotAnnotations(m)
	diags := facts.bad
	if len(facts.roots) == 0 {
		return diags
	}
	g := m.CallGraph()
	stop := func(n *FuncNode) bool {
		return facts.cold[n] || isConstructorName(n.Obj.Name())
	}
	reach := g.Reachable(facts.roots, stop)
	retained := retainedFacts(m)

	for _, n := range g.Nodes() {
		if !reach[n] {
			continue
		}
		diags = append(diags, checkFuncAllocs(m, n, facts, retained)...)
	}
	return diags
}

// isConstructorName matches the module's constructor convention.
func isConstructorName(name string) bool {
	return (strings.HasPrefix(name, "New") && len(name) > 3) ||
		(strings.HasPrefix(name, "new") && len(name) > 3)
}

// retained holds the recycling evidence shared by the whole module.
type retainedSet struct {
	fields map[*types.Var]bool      // struct fields somewhere re-sliced
	types_ map[*types.TypeName]bool // named slice types with a *recv = x[:n] method, or pooled via sync.Pool
}

// retainedFacts scans the module once for the retained-buffer idiom
// and the poolguard sync.Pool element types.  A second pass propagates
// the in-place filter idiom: `kept := b.entries[:0]; ...;
// b.entries = kept` retains entries even though the re-slice is only
// visible through the local alias.
func retainedFacts(m *Module) *retainedSet {
	r := &retainedSet{fields: map[*types.Var]bool{}, types_: map[*types.TypeName]bool{}}
	for _, pkg := range m.Pkgs {
		for _, p := range findPools(pkg) {
			if p.pooled != nil {
				r.types_[p.pooled] = true
			}
		}
		for _, f := range pkg.Files {
			sliceLocals := map[types.Object]bool{}
			for pass := 0; pass < 2; pass++ {
				ast.Inspect(f, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok {
						return true
					}
					for i, lhs := range as.Lhs {
						if i >= len(as.Rhs) {
							break
						}
						rhs := ast.Unparen(as.Rhs[i])
						fromSlice := false
						if _, ok := rhs.(*ast.SliceExpr); ok {
							fromSlice = true
						} else if id, ok := rhs.(*ast.Ident); ok && sliceLocals[objOf(pkg.Info, id)] {
							fromSlice = true // pass 2: field assigned from a filter alias
						}
						if !fromSlice {
							continue
						}
						if id, ok := lhs.(*ast.Ident); ok {
							if obj := objOf(pkg.Info, id); obj != nil {
								sliceLocals[obj] = true
							}
						}
						if v := baseFieldVar(pkg.Info, lhs); v != nil {
							r.fields[v] = true
						}
						if tn := derefSliceTypeName(pkg.Info, lhs); tn != nil {
							r.types_[tn] = true
						}
					}
					return true
				})
			}
		}
	}
	return r
}

// objOf resolves an identifier to its object (use or definition).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// baseFieldVar unwraps selector/index chains (`q.overflow[i]`, `b.wr`)
// to the struct-field object at their base.
func baseFieldVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// derefSliceTypeName recognizes `*h = ...` where h is a pointer to a
// named slice type (the heap-receiver reuse idiom).
func derefSliceTypeName(info *types.Info, e ast.Expr) *types.TypeName {
	star, ok := ast.Unparen(e).(*ast.StarExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(star.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		return nil
	}
	if named, ok := deref(obj.Type()).(*types.Named); ok {
		if _, isSlice := named.Underlying().(*types.Slice); isSlice {
			return named.Obj()
		}
	}
	return nil
}

// isRetainedDest reports whether growing e keeps its capacity: a
// retained field, or a deref of a retained named slice type.
func isRetainedDest(info *types.Info, r *retainedSet, e ast.Expr) bool {
	if v := baseFieldVar(info, e); v != nil && r.fields[v] {
		return true
	}
	if tn := derefSliceTypeName(info, e); tn != nil && r.types_[tn] {
		return true
	}
	return false
}

// checkFuncAllocs walks one reachable function and reports every
// unrecycled allocation site.
func checkFuncAllocs(m *Module, n *FuncNode, facts *hotFacts, retained *retainedSet) []moduleDiag {
	info := n.Pkg.Info
	var diags []moduleDiag
	flag := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, moduleDiag{n.Pkg, pos, fmt.Sprintf(format, args...) +
			fmt.Sprintf(" (hot path: reachable from an event-loop root via %s)", n.Name())})
	}

	allow := collectAllowances(info, n.Decl.Body, retained)

	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			// A non-capturing literal is a static funcval; a capturing one
			// bound to a local helper variable stays on the stack.  Either
			// way its body runs on the hot path when invoked, so descend.
			if capturesLocal(info, n.Decl, e) && !allow.localBound[e] {
				flag(e.Pos(), "capturing closure allocates at every evaluation")
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if lit, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					if !allow.guardedPos(e.Pos()) {
						flag(e.Pos(), "&%s composite literal escapes to the heap", typeLabel(info, lit))
					}
					// Still walk the literal's elements for nested allocs,
					// but do not re-flag the literal itself.
					for _, el := range lit.Elts {
						ast.Inspect(el, walk)
					}
					return false
				}
			}
		case *ast.CompositeLit:
			t := info.Types[e].Type
			if t != nil && !allow.guardedPos(e.Pos()) {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					flag(e.Pos(), "%s literal allocates its backing store", typeLabel(info, e))
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringExpr(info, e) && !isConstExpr(info, e) {
				flag(e.Pos(), "string concatenation allocates")
				return false
			}
		case *ast.CallExpr:
			return walkCall(info, e, n, facts, retained, allow, flag, walk)
		}
		return true
	}
	ast.Inspect(n.Decl.Body, walk)
	return diags
}

// allowances is the per-function evidence pre-pass: reuse-alias
// locals, locally-bound closures, and guarded lazy-init regions.
type allowances struct {
	aliases     map[types.Object]bool // locals aliasing retained backing store
	localBound  map[*ast.FuncLit]bool // closures bound to a local helper variable
	allowedMake map[*ast.CallExpr]bool
	guarded     [][2]token.Pos // bodies of `== nil` / cap-comparison guards
}

func (a *allowances) guardedPos(pos token.Pos) bool {
	for _, r := range a.guarded {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func collectAllowances(info *types.Info, body *ast.BlockStmt, retained *retainedSet) *allowances {
	a := &allowances{
		aliases:     map[types.Object]bool{},
		localBound:  map[*ast.FuncLit]bool{},
		allowedMake: map[*ast.CallExpr]bool{},
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) {
					break
				}
				rhs := ast.Unparen(s.Rhs[i])
				id, isIdent := lhs.(*ast.Ident)
				if lit, ok := rhs.(*ast.FuncLit); ok && isIdent {
					a.localBound[lit] = true
				}
				if isIdent {
					_, fromSlice := rhs.(*ast.SliceExpr)
					if !fromSlice {
						if v := baseFieldVar(info, rhs); v != nil && retained.fields[v] {
							fromSlice = true
						}
					}
					if fromSlice {
						if obj := objOf(info, id); obj != nil {
							a.aliases[obj] = true
						}
					}
				}
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(info, call, "make") {
					if isRetainedDest(info, retained, lhs) ||
						(isIdent && a.aliases[objOf(info, id)]) {
						a.allowedMake[call] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, v := range s.Values {
				if lit, ok := ast.Unparen(v).(*ast.FuncLit); ok {
					a.localBound[lit] = true
				}
			}
		case *ast.IfStmt:
			if condGuardsInit(info, s.Cond) {
				a.guarded = append(a.guarded, [2]token.Pos{s.Body.Pos(), s.Body.End()})
			}
		}
		return true
	})
	return a
}

// condGuardsInit recognizes the lazy-init and amortized-growth guards:
// a condition containing an `x == nil` comparison or a cap(x) call.
func condGuardsInit(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if e.Op == token.EQL && (isNilExpr(info, e.X) || isNilExpr(info, e.Y)) {
				found = true
			}
		case *ast.CallExpr:
			if isBuiltin(info, e, "cap") {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// capturesLocal reports whether lit references a variable of its
// enclosing function (receiver, parameter or local declared before the
// literal) — the references that force a heap-allocated closure when
// the literal escapes.
func capturesLocal(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() &&
			v.Pos() >= decl.Pos() && v.Pos() < lit.Pos() {
			found = true
		}
		return true
	})
	return found
}

// walkCall handles the call-shaped allocation categories; returns
// whether to descend into the call's children.
func walkCall(info *types.Info, call *ast.CallExpr, n *FuncNode, facts *hotFacts, retained *retainedSet,
	allow *allowances, flag func(token.Pos, string, ...any), walk func(ast.Node) bool) bool {

	switch {
	case isBuiltin(info, call, "make"):
		if !allow.allowedMake[call] && !allow.guardedPos(call.Pos()) {
			flag(call.Pos(), "make allocates; grow a retained buffer (field re-sliced with x = x[:0]) instead")
		}
		return true
	case isBuiltin(info, call, "new"):
		if !allow.guardedPos(call.Pos()) {
			flag(call.Pos(), "new allocates")
		}
		return true
	case isBuiltin(info, call, "append"):
		if len(call.Args) > 0 && !isRetainedDest(info, retained, call.Args[0]) && !isAliasIdent(info, allow, call.Args[0]) {
			flag(call.Pos(), "append to %s may grow a non-retained buffer", render(call.Args[0]))
		}
		return true
	}

	// Allocating stdlib packages (string building, boxing via ...any).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				switch pn.Imported().Path() {
				case "fmt", "errors", "strconv", "strings":
					flag(call.Pos(), "%s.%s allocates", pn.Imported().Path(), sel.Sel.Name)
					return true
				}
			}
		}
	}

	// Module-local callee facts: constructor calls, cold-call boxing
	// exemption, interface boxing of concrete arguments.
	g := n.Pkg // info owner; callee resolution below uses Uses only
	_ = g
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil || callee.Pkg() == nil {
		return true
	}
	if node := coldTarget(facts, callee); node {
		return true // cold path entry: argument evaluation is cold too
	}
	if isConstructorName(callee.Name()) && moduleLocal(info, callee) {
		flag(call.Pos(), "constructor %s called on the hot path", callee.Name())
		return true
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				continue
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		at := tv.Type
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() == types.Invalid {
			continue
		}
		flag(arg.Pos(), "argument boxes a non-pointer %s into interface parameter of %s", at.String(), callee.Name())
	}
	return true
}

// isAliasIdent reports whether e is a local aliasing retained backing
// store (a reuse alias from the pre-pass).
func isAliasIdent(info *types.Info, allow *allowances, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && allow.aliases[objOf(info, id)]
}

// coldTarget reports whether callee is //lint:hot cold.
func coldTarget(facts *hotFacts, callee *types.Func) bool {
	return facts.coldObjs[callee]
}

// moduleLocal reports whether callee is declared in this module (a
// fake stdlib placeholder package has no scope entries and its
// functions never resolve, so any resolved *types.Func with a real
// package is module-local here).
func moduleLocal(info *types.Info, callee *types.Func) bool {
	return callee.Pkg() != nil
}

// typeLabel renders a composite literal's type for messages.
func typeLabel(info *types.Info, lit *ast.CompositeLit) string {
	if lit.Type != nil {
		return render(lit.Type)
	}
	if t := info.Types[lit].Type; t != nil {
		return t.String()
	}
	return "composite"
}

// isBuiltin matches a call to a builtin by name.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.Uses[id]
	_, isBuiltinObj := obj.(*types.Builtin)
	return isBuiltinObj
}

// isStringExpr reports whether e's static type is a string.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstExpr reports whether e folds to a constant (no runtime
// allocation).
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
