package lint

// The loader: a stdlib-only substitute for golang.org/x/tools/go/packages.
//
// Every analyzer in this package needs the same three things — parsed
// syntax with comments, resolved identifiers, and type information for
// module-local declarations — and the lint stage has a ~5s budget in
// ci.sh, so the loader parses and type-checks the whole module exactly
// once and every analyzer runs over the shared result.
//
// Cross-module (standard library) imports are satisfied with empty
// placeholder packages instead of being type-checked from source: the
// invariants tflexlint enforces are stated in terms of *this module's*
// declarations (the engine's event queues and their owners, map-typed
// fields), so stdlib member types may come out as `invalid` without
// costing any analyzer precision — the few stdlib shapes that matter
// (`sort.*`, `time`/`math/rand` imports) are matched on resolved import
// names, not on stdlib type information.  That trade keeps a full-module load under a second
// where a source-importing load of net/http alone would blow the
// budget.

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked module package.
type Package struct {
	Path    string // import path ("example.com/mod/internal/sim")
	RelPath string // module-relative path ("internal/sim"; "" for the root)
	Dir     string
	Files   []*ast.File
	Fset    *token.FileSet
	Types   *types.Package
	Info    *types.Info
}

// FileName returns the base name of the file containing pos.
func (p *Package) FileName(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// Module is a fully loaded module: every package, sharing one FileSet.
type Module struct {
	Root string // directory containing go.mod
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // topologically ordered, dependencies first
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule loads the module rooted at root (its go.mod names the
// module path).
func LoadModule(root string) (*Module, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	return LoadTree(root, modPath)
}

// LoadTree loads every package under root as if root were the directory
// of a module named modPath.  Test files (_test.go), testdata trees,
// hidden and underscore-prefixed directories are skipped.
func LoadTree(root, modPath string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}

	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	// Parse every directory that holds non-test Go files.
	byPath := map[string]*Package{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(m.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			if !buildFileIncluded(f) {
				continue
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		pkg := &Package{
			Path:    path.Join(modPath, rel),
			RelPath: rel,
			Dir:     dir,
			Files:   files,
			Fset:    m.Fset,
		}
		byPath[pkg.Path] = pkg
	}

	ordered, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{local: map[string]*types.Package{}, fake: map[string]*types.Package{}}
	for _, pkg := range ordered {
		conf := types.Config{
			Importer: imp,
			Error:    func(error) {}, // stdlib members resolve to invalid types; that is expected
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		tpkg, _ := conf.Check(pkg.Path, m.Fset, pkg.Files, info) // errors swallowed above
		if tpkg == nil {
			tpkg = types.NewPackage(pkg.Path, "")
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.local[pkg.Path] = tpkg
	}
	m.Pkgs = ordered
	return m, nil
}

// buildFileIncluded reports whether f's build constraints (//go:build
// or legacy // +build lines above the package clause) admit the host
// configuration.  Excluded files would double-declare symbols or
// reference platform-only APIs, poisoning the shared type-check, so
// the loader drops them the way `go build` would.
func buildFileIncluded(f *ast.File) bool {
	tagOK := func(tag string) bool {
		switch tag {
		case runtime.GOOS, runtime.GOARCH, "gc":
			return true
		}
		return strings.HasPrefix(tag, "go1")
	}
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: include, let the checker complain
			}
			if !expr.Eval(tagOK) {
				return false
			}
		}
	}
	return true
}

// topoSort orders packages dependencies-first using module-local import
// edges only.
func topoSort(byPath map[string]*Package) ([]*Package, error) {
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var ordered []*Package
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p)
		}
		state[p] = visiting
		pkg := byPath[p]
		var deps []string
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				dep := importPath(spec)
				if _, ok := byPath[dep]; ok && dep != p {
					deps = append(deps, dep)
				}
			}
		}
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = done
		ordered = append(ordered, pkg)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// importPath returns the unquoted import path of spec.
func importPath(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	return strings.Trim(s, `"`)
}

// moduleImporter resolves module-local imports to their checked
// packages and everything else (the standard library) to empty
// placeholders.
type moduleImporter struct {
	local map[string]*types.Package
	fake  map[string]*types.Package
}

func (imp *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := imp.local[p]; ok {
		return pkg, nil
	}
	if pkg, ok := imp.fake[p]; ok {
		return pkg, nil
	}
	pkg := types.NewPackage(p, path.Base(p))
	pkg.MarkComplete()
	imp.fake[p] = pkg
	return pkg, nil
}

// receiverTypeName unwraps *T / generic instantiations to the bare
// receiver type name.
func receiverTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
