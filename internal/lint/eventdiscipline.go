package lint

// The event-discipline analyzer.  The engine's event layer offers
// exactly one correct way to schedule work: the chip's scheduleEv,
// which clamps the target cycle to now and stamps the insertion
// sequence number.  Both queue implementations assume it —
// calQueue.push in particular states its no-push-behind-the-cursor
// invariant in terms of the clamp.  Two mistakes re-introduce the bugs
// that contract removed:
//
//   - pushing or popping a queue directly from code that does not own
//     it, which skips the seq stamp (breaking the (at, seq) total order
//     that keeps every engine mode byte-identical) and the clamp
//     (breaking the calendar-queue bucket invariant);
//   - computing a target cycle by *subtracting from now* — the clamp
//     turns the intended past cycle into "this cycle", silently
//     reordering what was meant to be causality into coincidence.
//
// Ownership is structural, not nominal: a *queue owner* is any struct
// type with a field of a queue type (the chip owns the calendar queue
// and the reference heap).  Pops are the owner's drain loop, so any
// method of an owner may pop its queue; pushes must additionally go
// through the owner's scheduleEv, where the stamp and clamp live.
// Queue internals (event.go) are exempt wholesale.  Everything else —
// free functions, methods of non-owner types — may not touch a queue at
// all.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EventDiscipline enforces calendar-queue access and forward-only
// scheduling in the engine package.
var EventDiscipline = &Analyzer{
	Name: "event-discipline",
	Run:  runEventDiscipline,
}

// queueTypes are the event-queue implementations; direct method access
// is confined to event.go plus the methods of queue-owner types.
var queueTypes = map[string]bool{"calQueue": true, "minEvHeap": true}

// pushMethods stamp-sensitively insert events: owner scheduleEv only.
var pushMethods = map[string]bool{"push": true}

// popMethods remove or cursor-advance: any owner method (drain loops).
var popMethods = map[string]bool{"popMin": true, "pop": true, "nextAt": true}

func runEventDiscipline(m *Module, pkg *Package, report ReportFunc) {
	if pkg.RelPath != "internal/sim" {
		return
	}
	owners := queueOwners(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fromEventFile := pkg.FileName(fd.Pos()) == "event.go"
			ownerMethod := owners[recvTypeName(fd)]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkQueueAccess(pkg, fd, call, fromEventFile, ownerMethod, report)
				checkPastSchedule(pkg, call, report)
				return true
			})
		}
	}
}

// queueOwners returns the package's queue-owner types: named structs
// with a field (plain or pointer) of a queue type.  A back-reference to
// an owner (a processor's *Chip) owns nothing.
func queueOwners(pkg *Package) map[string]bool {
	owners := map[string]bool{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			ft := st.Field(i).Type()
			if ptr, isPtr := ft.(*types.Pointer); isPtr {
				ft = ptr.Elem()
			}
			if named, isNamed := ft.(*types.Named); isNamed && queueTypes[named.Obj().Name()] {
				owners[name] = true
				break
			}
		}
	}
	return owners
}

// recvTypeName returns the base type name of a method receiver ("" for
// free functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	return receiverTypeName(fd.Recv.List[0].Type)
}

// checkQueueAccess flags direct queue operations outside event.go and
// the queue-owner discipline: pops anywhere but an owner's methods,
// pushes anywhere but an owner's scheduleEv.
func checkQueueAccess(pkg *Package, fd *ast.FuncDecl, call *ast.CallExpr, fromEventFile, ownerMethod bool, report ReportFunc) {
	if fromEventFile {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	isPush, isPop := pushMethods[sel.Sel.Name], popMethods[sel.Sel.Name]
	if !isPush && !isPop {
		return
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || !queueTypes[named.Obj().Name()] {
		return
	}
	if isPush && !(ownerMethod && fd.Name.Name == "scheduleEv") {
		report(call.Pos(), "direct %s.%s bypasses the owner's scheduleEv: events must get their (at, seq) stamp and now-clamp from the typed API", named.Obj().Name(), sel.Sel.Name)
		return
	}
	if isPop && !ownerMethod {
		report(call.Pos(), "direct %s.%s outside a queue-owner method: only a queue's owning type may drain it", named.Obj().Name(), sel.Sel.Name)
	}
}

// checkPastSchedule flags schedule/scheduleEv calls whose cycle
// argument subtracts from the current cycle.
func checkPastSchedule(pkg *Package, call *ast.CallExpr, report ReportFunc) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "schedule" && sel.Sel.Name != "scheduleEv") || len(call.Args) < 1 {
		return
	}
	if sub := pastCycleExpr(call.Args[0]); sub != "" {
		report(call.Args[0].Pos(), "cycle argument %s schedules before Now(): the clamp would silently move it to the current cycle — compute forward delays only", sub)
	}
}

// pastCycleExpr returns the rendered subtraction if e (or a
// subexpression) subtracts from the current cycle (an operand chain
// ending in .now or a Now() call).
func pastCycleExpr(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.SUB || found != "" {
			return true
		}
		if mentionsNow(be.X) {
			found = render(be)
		}
		return true
	})
	return found
}

// mentionsNow reports whether e reads the current cycle: a selector or
// identifier named now, or a Now() call.
func mentionsNow(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "now" || n.Sel.Name == "Now" {
				found = true
			}
		case *ast.Ident:
			if n.Name == "now" {
				found = true
			}
		}
		return !found
	})
	if !found && strings.Contains(render(e), "Now()") {
		found = true
	}
	return found
}
