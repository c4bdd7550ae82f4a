package lint

// Hot-path annotations: the declarations that turn tribal knowledge
// about the engine's per-cycle fast path into analyzer input.  Grammar
// (one directive per comment, trailing the annotated line or on the
// line directly above it):
//
//	//lint:hot root           — function: a per-cycle event-loop entry,
//	                            a root for hotalloc's reachability walk
//	//lint:hot cold <reason>  — function: off the per-cycle fast path
//	                            (fault handling, one-time decode); hotalloc
//	                            does not traverse into it
//
// A directive with an unknown kind, or one that attaches to no function
// declaration, is itself reported — the same no-stale-annotations
// policy //lint:allow follows.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// moduleDiag is a finding produced by a module-global pass, held until
// the per-package Run call that owns its position reports it.
type moduleDiag struct {
	pkg *Package
	pos token.Pos
	msg string
}

// rawDirective is one scanned //lint:<prefix> comment.
type rawDirective struct {
	pkg    *Package
	file   *ast.File
	pos    token.Pos
	line   int
	fields []string // whitespace-split payload after the prefix
}

// scanRawDirectives collects every //lint:<prefix> comment in the
// module (prefix like "lint:hot").
func scanRawDirectives(m *Module, prefix string) []rawDirective {
	var out []rawDirective
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//"+prefix)
					if !ok {
						continue
					}
					out = append(out, rawDirective{
						pkg:    pkg,
						file:   f,
						pos:    c.Pos(),
						line:   m.Fset.Position(c.Pos()).Line,
						fields: strings.Fields(text),
					})
				}
			}
		}
	}
	return out
}

// funcDeclAt resolves the function declaration on the given line (or
// the line below).
func funcDeclAt(m *Module, d rawDirective) *ast.FuncDecl {
	for _, decl := range d.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		line := m.Fset.Position(fd.Pos()).Line
		if line == d.line || line == d.line+1 {
			return fd
		}
	}
	return nil
}

// hotFacts is the resolved //lint:hot annotation set.
type hotFacts struct {
	roots    []*FuncNode
	cold     map[*FuncNode]bool
	coldObjs map[*types.Func]bool // same set, keyed for call-site lookups
	bad      []moduleDiag
}

func collectHotAnnotations(m *Module) *hotFacts {
	g := m.CallGraph()
	facts := &hotFacts{cold: map[*FuncNode]bool{}, coldObjs: map[*types.Func]bool{}}
	for _, d := range scanRawDirectives(m, "lint:hot") {
		if len(d.fields) == 0 {
			facts.bad = append(facts.bad, moduleDiag{d.pkg, d.pos, `malformed directive: want "//lint:hot <root|cold>"`})
			continue
		}
		kind := d.fields[0]
		if kind != "root" && kind != "cold" {
			facts.bad = append(facts.bad, moduleDiag{d.pkg, d.pos, fmt.Sprintf("//lint:hot has unknown kind %q (want root or cold)", kind)})
			continue
		}
		fd := funcDeclAt(m, d)
		if fd == nil {
			facts.bad = append(facts.bad, moduleDiag{d.pkg, d.pos, fmt.Sprintf("//lint:hot %s attaches to no function declaration on this or the next line", kind)})
			continue
		}
		if kind == "cold" && len(d.fields) < 2 {
			facts.bad = append(facts.bad, moduleDiag{d.pkg, d.pos, `//lint:hot cold requires a reason: "//lint:hot cold <reason>"`})
			continue
		}
		node := g.byDecl[fd]
		if node == nil {
			continue
		}
		if kind == "root" {
			facts.roots = append(facts.roots, node)
		} else {
			facts.cold[node] = true
			facts.coldObjs[node.Obj] = true
		}
	}
	return facts
}
