package lint

// The event-discipline analyzer.  The event queue (internal/evq) offers
// exactly one way in, Queue.Schedule, which clamps the target cycle to
// Now and stamps the insertion sequence; the package boundary keeps
// every other access out.  One mistake no type can express remains:
// computing a target cycle by *subtracting from the current cycle* — the
// clamp turns the intended past cycle into "this cycle", silently
// reordering what was meant to be causality into coincidence.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EventDiscipline enforces forward-only scheduling on the event queue.
var EventDiscipline = &Analyzer{
	Name: "event-discipline",
	Run:  runEventDiscipline,
}

func runEventDiscipline(m *Module, pkg *Package, report ReportFunc) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 || !isSchedule(m, pkg, call) {
				return true
			}
			if sub := pastCycleExpr(call.Args[0]); sub != "" {
				report(call.Args[0].Pos(), "cycle argument %s schedules before Now(): the clamp would silently move it to the current cycle — compute forward delays only", sub)
			}
			return true
		})
	}
}

// isSchedule reports whether call is a call of the module's
// evq.Queue.Schedule, on any instantiation.
func isSchedule(m *Module, pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Schedule" {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Queue" && obj.Pkg() != nil && obj.Pkg().Path() == m.Path+"/internal/evq"
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
			found = types.ExprString(be)
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
			if n.Name == "now" || n.Name == "Now" {
				found = true
			}
		}
		return !found
	})
	return found
}
