package lint

// The loader: a stdlib-only substitute for golang.org/x/tools/go/packages.
//
// Every analyzer in this package needs the same three things — parsed
// syntax with comments, resolved identifiers, and type information for
// module-local declarations — and TestModuleCleanliness has a 5s
// budget, so the loader parses and type-checks the whole module exactly
// once and every analyzer runs over the shared result.  Which packages,
// which files (build constraints) and in what order (dependencies
// first) is not the loader's call: the go command answers all three.
//
// Cross-module (standard library) imports are satisfied with empty
// placeholder packages instead of being type-checked from source: the
// invariants the analyzers enforce are stated in terms of *this module's*
// declarations (the event queue's Schedule method, map-typed
// fields), so stdlib member types may come out as `invalid` without
// costing any analyzer precision — the few stdlib shapes that matter
// (`sort.*`, `time`/`math/rand` imports) are matched on resolved import
// names, not on stdlib type information.  That trade keeps a full-module load under a second
// where a source-importing load of net/http alone would blow the
// budget.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path"
	"path/filepath"
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
	Pkgs []*Package // in go list -deps order: dependencies first
}

// listedPackage is the part of one `go list -json` record the loader
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string // the build-selected non-test files
	Module     *struct {
		Path, Dir string
		Main      bool
	}
}

// LoadModule loads every package of the module in dir.  One
// `go list -deps` run chooses the packages, their build-selected files
// and their deps-first order, exactly as `go build` would; packages
// outside the main module (the standard library) are skipped here and
// satisfied by moduleImporter's placeholders.
func LoadModule(dir string) (*Module, error) {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list in %s: %v: %s", dir, err, bytes.TrimSpace(stderr.Bytes()))
	}
	m := &Module{Fset: token.NewFileSet()}
	imp := &moduleImporter{local: map[string]*types.Package{}, fake: map[string]*types.Package{}}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Module == nil || !lp.Module.Main || len(lp.GoFiles) == 0 {
			continue
		}
		m.Root, m.Path = lp.Module.Dir, lp.Module.Path
		pkg := &Package{
			Path:    lp.ImportPath,
			RelPath: strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, m.Path), "/"),
			Dir:     lp.Dir,
			Fset:    m.Fset,
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(m.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(error) {}, // stdlib members resolve to invalid types; that is expected
		}
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		pkg.Types, _ = conf.Check(pkg.Path, m.Fset, pkg.Files, pkg.Info) // errors swallowed above
		if pkg.Types == nil {
			pkg.Types = types.NewPackage(pkg.Path, "")
		}
		imp.local[pkg.Path] = pkg.Types
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
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
