package analysis

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// The suite runs the standard go/types checker over every package it
// analyzes. Module-internal imports resolve by loading and checking the
// imported directory from disk; standard-library imports resolve through the
// stdlib source importer (go/importer "source" mode — no x/tools, no
// pre-compiled export data needed); anything else degrades to an empty
// placeholder package so checking stays tolerant. Golden testdata packages
// therefore type-check too, which is what lets the taint engine resolve
// callees by their defining package instead of by spelling.

// sharedFset is the process-wide FileSet every loaded package and the stdlib
// importer share. A single FileSet keeps positions comparable across
// packages and lets the (expensive, ~1.5s cold) stdlib source import be done
// once per process instead of once per Load.
var sharedFset = token.NewFileSet()

var (
	typecheckMu sync.Mutex // serializes all type-checking (importer caches are not concurrency-safe)

	stdImporterOnce sync.Once
	stdImporter     types.ImporterFrom
)

func stdlibImporter() types.ImporterFrom {
	stdImporterOnce.Do(func() {
		if imp, ok := importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom); ok {
			stdImporter = imp
		}
	})
	return stdImporter
}

// modulePathRE extracts the module path from go.mod.
var modulePathRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// modulePathOf reads the module path from root/go.mod, defaulting to
// "ironsafe" when the file is absent (testdata loads have no go.mod).
func modulePathOf(root string) string {
	if root != "" {
		if data, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
			if m := modulePathRE.FindSubmatch(data); m != nil {
				return string(m[1])
			}
		}
	}
	return "ironsafe"
}

// A Module groups the packages of one Load call with the type-checker state
// they share. Analyzers reach it through Package.Module to resolve
// cross-package function summaries.
type Module struct {
	// RootDir is the module root directory (testdata/src for a golden
	// package, or ""); an import with no package under it is a placeholder.
	RootDir string
	// Path is the module import path from go.mod ("ironsafe").
	Path string
	Fset *token.FileSet

	// pkgs indexes every checked package (analyzed set plus
	// dependency-loaded ones) by module-relative path.
	pkgs map[string]*Package

	checking map[string]bool // import-cycle guard

	// lazily built analysis state (see taint.go, failopen.go, policypath.go)
	declIndex  map[*types.Func]*funcDeclRef
	taintSums  map[*types.Func]*funcSummary
	failSums   map[*types.Func]bool
	policySums map[*types.Func]*policySummary
}

// funcDeclRef locates one function declaration inside its package.
type funcDeclRef struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func newModule(root string) *Module {
	return &Module{
		RootDir:  root,
		Path:     modulePathOf(root),
		Fset:     sharedFset,
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}
}

// typesPath is the import path the type checker files pkg under.
func (m *Module) typesPath(rel string) string {
	if rel == "" {
		return m.Path
	}
	return m.Path + "/" + rel
}

// relPath inverts typesPath: the module-relative path of a types.Package
// path, and whether it is module-internal at all.
func (m *Module) relPath(typesPath string) (string, bool) {
	if typesPath == m.Path {
		return "", true
	}
	if rest, ok := strings.CutPrefix(typesPath, m.Path+"/"); ok {
		return rest, true
	}
	return "", false
}

// check type-checks pkg in place, resolving imports through the module. It
// never fails: type errors are collected into pkg.TypeErrors and checking
// continues with whatever information survives.
func (m *Module) check(pkg *Package) {
	typecheckMu.Lock()
	defer typecheckMu.Unlock()
	m.checkLocked(pkg)
}

func (m *Module) checkLocked(pkg *Package) {
	if pkg.Types != nil {
		return
	}
	key := pkg.Path
	if pkg.External {
		key += " [test]"
	}
	if m.checking[key] {
		return
	}
	m.checking[key] = true
	defer delete(m.checking, key)
	if _, ok := m.pkgs[key]; !ok {
		m.pkgs[key] = pkg
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return m.importPkg(path)
		}),
		Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tPath := m.typesPath(pkg.Path)
	if pkg.External {
		// The external test package (package foo_test) must not collide
		// with the real package in the importer cache.
		tPath += "_test"
	}
	// Check never returns a nil package; the error, if any, is already in
	// pkg.TypeErrors via the handler.
	tpkg, _ := conf.Check(tPath, m.Fset, pkg.Files, info)
	pkg.Types = tpkg
	pkg.TypesInfo = info
}

// importPkg resolves one import path during type checking.
func (m *Module) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := m.relPath(path); ok {
		if pkg := m.pkgs[rel]; pkg != nil {
			m.checkLocked(pkg)
			if pkg.Types != nil {
				return pkg.Types, nil
			}
			return placeholderPkg(path), nil
		}
		if m.RootDir != "" && !m.checking[rel] {
			dir := filepath.Join(m.RootDir, filepath.FromSlash(rel))
			loaded, err := loadDirWith(dir, rel, LoadConfig{})
			if err == nil && len(loaded) > 0 {
				pkg := loaded[0]
				pkg.Module = m
				m.pkgs[rel] = pkg
				m.checkLocked(pkg)
				if pkg.Types != nil {
					return pkg.Types, nil
				}
			}
		}
		return placeholderPkg(path), nil
	}
	if imp := stdlibImporter(); imp != nil {
		from := m.RootDir
		if from == "" {
			from = "."
		}
		if tpkg, err := imp.ImportFrom(path, from, 0); err == nil {
			return tpkg, nil
		}
	}
	return placeholderPkg(path), nil
}

// placeholderPkg stands in for an unresolvable import so checking continues:
// selections into it become invalid types, which every analyzer treats as
// "no information" rather than an error.
func placeholderPkg(path string) *types.Package {
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// funcFor finds the declaration of fn among the module's checked packages.
func (m *Module) funcFor(fn *types.Func) *funcDeclRef {
	if m.declIndex == nil {
		m.declIndex = map[*types.Func]*funcDeclRef{}
		for _, pkg := range m.pkgs {
			if pkg.TypesInfo == nil {
				continue
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						m.declIndex[obj] = &funcDeclRef{pkg: pkg, decl: fd}
					}
				}
			}
		}
	}
	return m.declIndex[fn]
}

// modRelOf maps a types.Package to its module-relative path: "" for the
// module root, "internal/tee/sgx" for module-internal packages, and
// (path, false) for stdlib or foreign packages.
func (m *Module) modRelOf(tpkg *types.Package) (string, bool) {
	if tpkg == nil {
		return "", false
	}
	return m.relPath(strings.TrimSuffix(tpkg.Path(), "_test"))
}
