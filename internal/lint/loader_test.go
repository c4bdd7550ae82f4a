package lint

import (
	"go/ast"
	"go/constant"
	"path/filepath"
	"strings"
	"testing"
)

// pkgByRel finds a loaded package by module-relative path.
func pkgByRel(t *testing.T, m *Module, rel string) *Package {
	t.Helper()
	for _, p := range m.Pkgs {
		if p.RelPath == rel {
			return p
		}
	}
	t.Fatalf("package %q not loaded; have %v", rel, relPaths(m))
	return nil
}

func relPaths(m *Module) []string {
	var out []string
	for _, p := range m.Pkgs {
		out = append(out, p.RelPath)
	}
	return out
}

// TestLoaderBuildConstraints pins the file-selection behavior, which is
// go build's: files excluded by //go:build or legacy // +build lines —
// a foreign platform, a Go release newer than the toolchain — are
// dropped (they redeclare symbols of the host files), and the admitted
// tagged files, gc and unix (ci.sh is a POSIX shell script, so the gate
// runs on a unix host), participate in the shared type-check.
func TestLoaderBuildConstraints(t *testing.T) {
	m := loadFixture(t, "loader")
	base := pkgByRel(t, m, "internal/base")

	var names []string
	for _, f := range base.Files {
		names = append(names, base.FileName(f.Pos()))
	}
	want := map[string]bool{"base.go": true, "base_host.go": true, "base_unix.go": true}
	if len(names) != len(want) {
		t.Fatalf("internal/base files: want base.go + base_host.go + base_unix.go, got %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("internal/base admitted excluded file %s", n)
		}
	}

	// The const completed by the tagged host file must resolve.
	obj := base.Types.Scope().Lookup("Width")
	if obj == nil {
		t.Fatal("base.Width did not type-check")
	}
	c, ok := obj.(interface{ Val() constant.Value })
	if !ok || c.Val().String() != "64" {
		t.Errorf("base.Width: want constant 64 from the host-tagged file, got %v", obj)
	}
	if base.Types.Scope().Lookup("Unix") == nil {
		t.Error("base.Unix from the unix-tagged file did not type-check")
	}
}

// TestLoaderTopoOrder pins deps-first ordering across the diamond:
// base before left and right, both before top.
func TestLoaderTopoOrder(t *testing.T) {
	m := loadFixture(t, "loader")
	idx := map[string]int{}
	for i, p := range m.Pkgs {
		idx[p.RelPath] = i
	}
	for _, rel := range []string{"internal/base", "internal/left", "internal/right", "internal/gen", "internal/top"} {
		if _, ok := idx[rel]; !ok {
			t.Fatalf("package %s not loaded; have %v", rel, relPaths(m))
		}
	}
	if idx["internal/base"] > idx["internal/left"] || idx["internal/base"] > idx["internal/right"] {
		t.Errorf("base must precede left and right: %v", relPaths(m))
	}
	if idx["internal/left"] > idx["internal/top"] || idx["internal/right"] > idx["internal/top"] || idx["internal/gen"] > idx["internal/top"] {
		t.Errorf("top must come after all its imports: %v", relPaths(m))
	}
}

// TestLoaderGenerics pins that generic declarations load, type-check
// and resolve: the cross-package instantiation in top must bind, and
// receiver resolution must see through the type-parameter index.
func TestLoaderGenerics(t *testing.T) {
	m := loadFixture(t, "loader")
	gen := pkgByRel(t, m, "internal/gen")

	methods := map[string]bool{}
	for _, f := range gen.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if name := receiverTypeName(fd.Recv.List[0].Type); name != "Ring" {
				t.Errorf("receiverTypeName(%s) = %q, want Ring", fd.Name.Name, name)
			}
			methods[fd.Name.Name] = true
		}
	}
	if !methods["Push"] || !methods["Len"] {
		t.Errorf("generic methods not seen: %v", methods)
	}

	// The instantiating package must have type-checked against gen.
	top := pkgByRel(t, m, "internal/top")
	if top.Types.Scope().Lookup("Sum") == nil {
		t.Error("top.Sum did not type-check against the generic package")
	}

	// The whole fixture must also be clean under the full suite — the
	// analyzers walk the generic bodies without tripping or panicking.
	if diags := Run(m, All()); len(diags) != 0 {
		t.Errorf("loader fixture not clean: %v", diags)
	}
}

// TestLoaderImportCycle pins the failure mode: mutually importing
// packages must surface as go list's cycle error, not a hang or a stack
// overflow.
func TestLoaderImportCycle(t *testing.T) {
	_, err := LoadModule(filepath.Join("testdata", "loadercycle"))
	if err == nil {
		t.Fatal("loading a cyclic module: want an import-cycle error, got nil")
	}
	if got := err.Error(); !strings.Contains(got, "import cycle") {
		t.Errorf("cycle error = %q, want it to mention the import cycle", got)
	}
}
