// Package lint is the tflex static-analysis suite: project-specific
// analyzers, built on the standard library's go/ast + go/parser +
// go/types only, that enforce the simulator invariants no general
// linter knows about and no deterministic test can observe — cycle
// determinism and event-queue ordering.  TestModuleCleanliness is the
// one driver: `go test ./...` runs it in the default tier-1 gate, and
// `./ci.sh lint` runs it alone.
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
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, renderable as "file:line:col: [analyzer] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.  Run inspects a single package
// (with the whole module available for cross-package facts) and reports
// findings through report.
type Analyzer struct {
	Name string
	Run  func(m *Module, pkg *Package, report ReportFunc)
}

// ReportFunc files one finding at pos.
type ReportFunc func(pos token.Pos, format string, args ...any)

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, EventDiscipline}
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos      token.Position
	analyzer string
	used     bool
}

const directivePrefix = "lint:allow"

// Run applies analyzers to every package in m, resolves //lint:allow
// directives, and returns the surviving diagnostics sorted by position.
// Unused and malformed directives are reported as findings of the
// pseudo-analyzer "lint".
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var allows []*allowDirective

	for _, pkg := range m.Pkgs {
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
	kept := diags[:0]
	for _, d := range diags {
		allowed := false
		for _, dir := range allows {
			if dir.analyzer == d.Analyzer && dir.pos.Filename == d.Pos.Filename &&
				(dir.pos.Line == d.Pos.Line || dir.pos.Line+1 == d.Pos.Line) {
				dir.used = true
				allowed = true
			}
		}
		if !allowed {
			kept = append(kept, d)
		}
	}
	diags = kept

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
				dirs = append(dirs, &allowDirective{pos: pos, analyzer: name})
			}
		}
	}
	return dirs, bad
}
