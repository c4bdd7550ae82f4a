package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// loadFixture loads one testdata tree, the module "example.com/fix".
func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	m, err := LoadModule(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(m.Pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	return m
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one `// want "substring"` marker in a fixture file.
type expectation struct {
	file string // base name
	line int
	want string
}

// fixtureWants scans the loaded fixture for want markers.
func fixtureWants(m *Module) []expectation {
	var wants []expectation
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, match := range wantRE.FindAllStringSubmatch(c.Text, -1) {
						pos := m.Fset.Position(c.Pos())
						wants = append(wants, expectation{
							file: filepath.Base(pos.Filename),
							line: pos.Line,
							want: match[1],
						})
					}
				}
			}
		}
	}
	return wants
}

// checkGolden runs the given analyzers over the fixture and matches the
// diagnostics 1:1 against the want markers.
func checkGolden(t *testing.T, fixture string, analyzers []*Analyzer) {
	t.Helper()
	m := loadFixture(t, fixture)
	diags := Run(m, analyzers)
	wants := fixtureWants(m)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || filepath.Base(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
				continue
			}
			if strings.Contains(d.Message, w.want) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: want a finding containing %q, got none", w.file, w.line, w.want)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	checkGolden(t, "determinism", []*Analyzer{Determinism})
}

func TestEventDisciplineGolden(t *testing.T) {
	checkGolden(t, "eventdisc", []*Analyzer{EventDiscipline})
}

// TestAllowDirectives pins the suppression machinery: audited map
// ranges vanish, while unused, malformed and unknown-analyzer
// directives surface as "lint" findings.
func TestAllowDirectives(t *testing.T) {
	m := loadFixture(t, "allow")
	diags := Run(m, []*Analyzer{Determinism})

	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d [%s] %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message))
	}

	wants := []struct {
		line   int
		substr string
	}{
		{24, "unused //lint:allow determinism directive"},
		{28, "malformed directive"},
		{32, `unknown analyzer "nosuchanalyzer"`},
	}
	if len(diags) != len(wants) {
		t.Fatalf("want %d findings, got %d:\n%s", len(wants), len(diags), strings.Join(got, "\n"))
	}
	for i, w := range wants {
		d := diags[i]
		if d.Pos.Line != w.line || d.Analyzer != "lint" || !strings.Contains(d.Message, w.substr) {
			t.Errorf("finding %d: want line %d [lint] containing %q, got %s", i, w.line, w.substr, got[i])
		}
	}
}

// TestAllowFixtureTriggersWithoutDirectives guards against the allow
// fixture rotting: the audited sites must be suppressed through the
// driver, yet still trigger the raw analyzer — proving the directives
// are suppressing real findings rather than nothing.
func TestAllowFixtureTriggersWithoutDirectives(t *testing.T) {
	m := loadFixture(t, "allow")
	diags := Run(m, []*Analyzer{Determinism})
	for _, d := range diags {
		if d.Analyzer == "determinism" {
			t.Errorf("audited site leaked through its directive: %s", d)
		}
	}
	// The raw analyzer (no directive resolution) must still fire on both.
	raw := 0
	for _, pkg := range m.Pkgs {
		Determinism.Run(m, pkg, func(_ token.Pos, _ string, _ ...any) { raw++ })
	}
	if raw != 2 {
		t.Errorf("raw determinism findings in allow fixture: want 2, got %d", raw)
	}
}

// TestModuleCleanliness is the one way the module is linted: it must
// be lint-clean, and the whole load+analyze pass must stay fast enough
// to sit in the default CI gate.  `go test ./...` runs it; `./ci.sh
// lint` runs it alone.  Findings print as file:line:col.
func TestModuleCleanliness(t *testing.T) {
	start := time.Now()
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgByRel(t, m, "internal/evq") // the event-discipline target must be in the load
	diags := Run(m, All())
	elapsed := time.Since(start)
	for _, d := range diags {
		t.Errorf("module not lint-clean: %s", d)
	}
	// Typical load+run is well under a second; the generous bound only
	// catches an analyzer going superlinear (a lost cache share, a
	// fixpoint that stopped converging), not a slow CI host.
	const budget = 5 * time.Second
	if elapsed > budget {
		t.Errorf("whole-module lint took %v, over its %v budget", elapsed, budget)
	}
}
