package lint

// The determinism analyzer.  The experiment suite's contract — pinned
// by internal/experiments' regression test — is byte-identical stdout
// at any -jobs level, and the simulator's contract is byte-identical
// results for one seed state.  Two bug classes silently break both:
//
//  1. Wall-clock or randomness inside simulation code.  Only the
//     suite and the commands may time things (job wall clocks, progress
//     lines on stderr); everything that feeds a figure or a cycle
//     count must be a pure function of its inputs.  The analyzer flags
//     any import of time or math/rand outside the allowlisted
//     driver packages.  One carve-out: packages that are random by
//     design but seed-reproducible (the EDGE program generator) may
//     import math/rand, and there the analyzer instead flags any use
//     of the process-global source (rand.Intn and friends) — only
//     explicitly seeded *rand.Rand instances are allowed.
//
//  2. Ranging over a map on a path that can reach output.  Go
//     randomizes map iteration order per run, so a map range is only
//     safe when the loop is provably order-insensitive.  The analyzer
//     accepts exactly three shapes and flags everything else:
//
//       - sorted-keys: the loop only appends to slices that are later
//         passed to sort.* / slices.Sort* in the same function;
//       - map-writes: every statement only assigns through a map index
//         (set insertion is commutative) or declares loop-locals;
//       - integer accumulation: `n++` / `sum += x` on integer-typed
//         accumulators (integer addition commutes; float addition does
//         NOT — float accumulation over a map range is flagged, match
//         the sorted-key summation in telemetry.Snapshot.Sum instead).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// wallClockAllowed lists the module-relative package paths that may
// import time / math/rand: the experiment suite (per-job wall clocks
// and the progress lines that render them to stderr), the commands and
// the examples.  Simulation, telemetry and analysis packages must stay
// clock-free.
func wallClockAllowed(relPath string) bool {
	if relPath == "internal/experiments" {
		return true
	}
	return strings.HasPrefix(relPath, "cmd/") || strings.HasPrefix(relPath, "examples/")
}

var forbiddenImports = map[string]string{
	"time":         "wall-clock reads are nondeterministic across runs",
	"math/rand":    "unseeded randomness breaks byte-identical replay",
	"math/rand/v2": "unseeded randomness breaks byte-identical replay",
}

// seededRandAllowed lists the packages that may import math/rand on the
// condition that every use goes through an explicitly seeded source:
// the EDGE program generator is random by design but must regenerate
// the identical program for one seed.  In these packages the analyzer
// swaps the import ban for a use check — only the constructors
// (rand.New, rand.NewSource) and type names may be referenced at
// package scope; the top-level convenience functions (rand.Intn,
// rand.Shuffle, ...) draw from the process-global source and are
// flagged.
func seededRandAllowed(relPath string) bool {
	return relPath == "internal/edgegen"
}

// seededRandOK are the math/rand package-scope names that do not touch
// the global source: constructors and the types they return.
var seededRandOK = map[string]bool{
	"New":       true,
	"NewSource": true,
	"Rand":      true,
	"Source":    true,
	"NewZipf":   true, // takes an explicit *Rand
	"Zipf":      true,
}

// Determinism enforces the no-wall-clock rule and flags map iteration
// that can leak Go's randomized order into results.
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

func runDeterminism(m *Module, pkg *Package, report ReportFunc) {
	if !wallClockAllowed(pkg.RelPath) {
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				p := importPath(spec)
				why, ok := forbiddenImports[p]
				if !ok {
					continue
				}
				if seededRandAllowed(pkg.RelPath) && strings.HasPrefix(p, "math/rand") {
					continue // import allowed; uses are checked below
				}
				report(spec.Pos(), "import %q outside the driver allowlist: %s", p, why)
			}
		}
	}

	if seededRandAllowed(pkg.RelPath) {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pkg.Info.Uses[id].(*types.PkgName)
				if !ok || !strings.HasPrefix(pn.Imported().Path(), "math/rand") {
					return true
				}
				if !seededRandOK[sel.Sel.Name] {
					report(sel.Pos(), "rand.%s draws from the process-global source; use an explicitly seeded *rand.Rand (rand.New(rand.NewSource(seed)))", sel.Sel.Name)
				}
				return false
			})
		}
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapType(pkg, rs.X) {
					return true
				}
				if mapRangeSorted(pkg, fd, rs) || mapRangeCommutative(pkg, rs.Body) {
					return true
				}
				report(rs.Pos(), "range over map %s: iteration order is randomized; sort the keys or make the body order-insensitive", types.ExprString(rs.X))
				return true
			})
		}
	}
}

// isMapType reports whether e's static type is a map.
func isMapType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// mapRangeSorted accepts the collect-then-sort idiom: the loop body
// only appends to slice variables, and each of those slices is later
// handed to a sort.* / slices.* call (or a method named Sort*) inside
// the same function.
func mapRangeSorted(pkg *Package, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	// Collect the objects appended to; bail if the body does anything else.
	appended := map[types.Object]bool{}
	ok := true
	var checkStmts func([]ast.Stmt)
	checkStmt := func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				ok = false
				return
			}
			lhs, okl := s.Lhs[0].(*ast.Ident)
			call, okr := s.Rhs[0].(*ast.CallExpr)
			if !okl || !okr || !isBuiltinAppend(pkg, call) {
				ok = false
				return
			}
			obj := pkg.Info.Uses[lhs]
			if obj == nil {
				obj = pkg.Info.Defs[lhs]
			}
			if obj == nil {
				ok = false
				return
			}
			appended[obj] = true
		case *ast.IfStmt:
			if s.Init != nil || s.Else != nil {
				ok = false
				return
			}
			checkStmts(s.Body.List)
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				ok = false
			}
		default:
			ok = false
		}
	}
	checkStmts = func(list []ast.Stmt) {
		for _, s := range list {
			checkStmt(s)
		}
	}
	checkStmts(rs.Body.List)
	if !ok || len(appended) == 0 {
		return false
	}

	// Every appended slice must reach a sorting call after the loop.
	sorted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < rs.End() || !isSortCall(pkg, call.Fun) {
			return true
		}
		for _, arg := range call.Args {
			if id, isIdent := arg.(*ast.Ident); isIdent {
				if obj := pkg.Info.Uses[id]; obj != nil && appended[obj] {
					sorted[obj] = true
				}
			}
		}
		return true
	})
	unsorted := 0
	for obj := range appended {
		if !sorted[obj] {
			unsorted++
		}
	}
	return unsorted == 0
}

func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isSortCall matches sort.X(...), slices.X(...) and methods whose name
// starts with Sort.
func isSortCall(pkg *Package, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, isIdent := sel.X.(*ast.Ident); isIdent {
		if pn, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
			p := pn.Imported().Path()
			return p == "sort" || p == "slices"
		}
	}
	return strings.HasPrefix(sel.Sel.Name, "Sort")
}

// mapRangeCommutative accepts loop bodies whose visible effects
// commute across iterations: writes through map indices, loop-local
// declarations, integer accumulation, and control flow over those.
func mapRangeCommutative(pkg *Package, body *ast.BlockStmt) bool {
	var okStmts func([]ast.Stmt) bool
	okStmt := func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.AssignStmt:
			return commutativeAssign(pkg, s)
		case *ast.IncDecStmt:
			return mapIndexLHS(pkg, s.X) || isIntegerExpr(pkg, s.X)
		case *ast.IfStmt:
			if s.Init != nil {
				if a, ok := s.Init.(*ast.AssignStmt); !ok || !commutativeAssign(pkg, a) {
					return false
				}
			}
			if !okStmts(s.Body.List) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
				return true
			case *ast.BlockStmt:
				return okStmts(e.List)
			case *ast.IfStmt:
				return okStmts([]ast.Stmt{e})
			default:
				return false
			}
		case *ast.BlockStmt:
			return okStmts(s.List)
		case *ast.RangeStmt:
			return okStmts(s.Body.List)
		case *ast.ForStmt:
			return okStmts(s.Body.List)
		case *ast.DeclStmt:
			return true
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE || s.Tok == token.BREAK
		default:
			return false
		}
	}
	okStmts = func(list []ast.Stmt) bool {
		for _, s := range list {
			if !okStmt(s) {
				return false
			}
		}
		return true
	}
	return okStmts(body.List)
}

// commutativeAssign accepts map-index stores, loop-local definitions,
// and integer-typed commutative compound assignments.
func commutativeAssign(pkg *Package, a *ast.AssignStmt) bool {
	switch a.Tok {
	case token.DEFINE:
		return true // fresh loop-locals; their uses are judged where they land
	case token.ASSIGN:
		for _, lhs := range a.Lhs {
			if isBlank(lhs) || mapIndexLHS(pkg, lhs) {
				continue
			}
			return false
		}
		return true
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		for _, lhs := range a.Lhs {
			if mapIndexLHS(pkg, lhs) || isIntegerExpr(pkg, lhs) {
				continue
			}
			return false // float (+= is order-sensitive) or string (concatenation)
		}
		return true
	default:
		return false
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// mapIndexLHS reports whether e is an index expression into a map
// (including chained forms like m[a][b]).
func mapIndexLHS(pkg *Package, e ast.Expr) bool {
	idx, ok := e.(*ast.IndexExpr)
	return ok && isMapType(pkg, idx.X)
}

// isIntegerExpr reports whether e's static type is an integer kind.
func isIntegerExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}
