// Package lint is the tflex static-analysis suite: project-specific
// analyzers, built on the standard library's go/ast + go/parser +
// go/types only, that enforce the simulator invariants no general
// linter knows about and no deterministic test can observe — cycle
// determinism and event-queue ordering.  cmd/tflexlint is the
// command-line driver; ci.sh runs it in the default tier-1 gate.
//
// A finding can be suppressed at a call site that has been audited by
// hand with a directive comment on the flagged line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory, and a directive that suppresses nothing is
// itself reported, so stale suppressions cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, renderable as "file:line:col: [analyzer] message".
// Allowed findings were suppressed by an audited //lint:allow directive;
// Run drops them, RunDetailed keeps them with the directive's reason.
type Diagnostic struct {
	Pos         token.Position
	Analyzer    string
	Message     string
	Allowed     bool
	AllowReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.  Run inspects a single package
// (with the whole module available for cross-package facts) and reports
// findings through report.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module, pkg *Package, report ReportFunc)
}

// ReportFunc files one finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, EventDiscipline}
}

// ByName resolves a comma-separated analyzer list ("determinism,event-discipline").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

const directivePrefix = "lint:allow"

// Run applies analyzers to every package in m (or, when filter is
// non-nil, the packages it admits), resolves //lint:allow directives,
// and returns the surviving diagnostics sorted by position.  Unused and
// malformed directives are reported as findings of the pseudo-analyzer
// "lint".
func Run(m *Module, analyzers []*Analyzer, filter func(*Package) bool) []Diagnostic {
	var kept []Diagnostic
	for _, d := range RunDetailed(m, analyzers, filter) {
		if !d.Allowed {
			kept = append(kept, d)
		}
	}
	return kept
}

// RunDetailed is Run keeping the suppressed findings: every diagnostic
// comes back, audited ones marked Allowed and carrying their
// directive's reason — the record the JSON output and CI summaries
// show.
func RunDetailed(m *Module, analyzers []*Analyzer, filter func(*Package) bool) []Diagnostic {
	var diags []Diagnostic
	var allows []*allowDirective

	for _, pkg := range m.Pkgs {
		if filter != nil && !filter(pkg) {
			continue
		}
		for _, a := range analyzers {
			a := a
			report := func(pos token.Pos, format string, args ...any) {
				diags = append(diags, Diagnostic{
					Pos:      m.Fset.Position(pos),
					Analyzer: a.Name,
					Message:  fmt.Sprintf(format, args...),
				})
			}
			a.Run(m, pkg, report)
		}
		dirs, bad := collectDirectives(m, pkg, analyzers)
		allows = append(allows, dirs...)
		diags = append(diags, bad...)
	}

	// A directive suppresses findings of its analyzer on its own line
	// (trailing comment) or the line directly below (own-line comment).
	for i := range diags {
		d := &diags[i]
		for _, dir := range allows {
			if dir.analyzer == d.Analyzer && dir.pos.Filename == d.Pos.Filename &&
				(dir.pos.Line == d.Pos.Line || dir.pos.Line+1 == d.Pos.Line) {
				dir.used = true
				d.Allowed = true
				d.AllowReason = dir.reason
			}
		}
	}

	for _, dir := range allows {
		if !dir.used {
			diags = append(diags, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "lint",
				Message:  fmt.Sprintf("unused //lint:allow %s directive: nothing on this or the next line triggers %s", dir.analyzer, dir.analyzer),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// collectDirectives parses every //lint:allow comment in pkg.
// Malformed directives (missing analyzer or reason, unknown analyzer)
// come back as diagnostics; only directives for analyzers in the active
// set participate in suppression.
func collectDirectives(m *Module, pkg *Package, analyzers []*Analyzer) ([]*allowDirective, []Diagnostic) {
	var dirs []*allowDirective
	var bad []Diagnostic
	active := map[string]bool{}
	for _, a := range analyzers {
		active[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				pos := m.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  `malformed directive: want "//lint:allow <analyzer> <reason>"`,
					})
					continue
				}
				name := fields[0]
				known := false
				for _, a := range All() {
					if a.Name == name {
						known = true
						break
					}
				}
				if !known {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", name),
					})
					continue
				}
				if !active[name] {
					continue // analyzer not in this run; directive neither used nor stale
				}
				dirs = append(dirs, &allowDirective{
					pos:      pos,
					analyzer: name,
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return dirs, bad
}

// render prints an expression's source form for diagnostics.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return render(e.X) + "[" + render(e.Index) + "]"
	case *ast.ParenExpr:
		return render(e.X)
	case *ast.StarExpr:
		return "*" + render(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + render(e.X)
	case *ast.CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = render(a)
		}
		return render(e.Fun) + "(" + strings.Join(args, ",") + ")"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
