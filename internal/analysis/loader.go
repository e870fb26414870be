package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one directory's worth of parsed, type-checked Go source.
type Package struct {
	// Name is the package clause name.
	Name string
	// Path is the module-relative package path ("" for the module root).
	Path string
	// Dir is the absolute directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File

	// External marks an external test package (package foo_test) split out
	// of the same directory when tests are loaded.
	External bool

	// Types and TypesInfo are the go/types results for the package. The
	// checker is tolerant: both are non-nil after loading even when
	// TypeErrors is non-empty, and analyzers must treat missing or invalid
	// type information as "unknown", never as an error.
	Types      *types.Package
	TypesInfo  *types.Info
	TypeErrors []error

	// Module links back to the load this package belongs to, giving
	// analyzers access to sibling packages and cross-package summaries.
	Module *Module
}

// LoadConfig tunes Load/LoadDir behaviour.
type LoadConfig struct {
	// IncludeTests parses _test.go files too. In-package test files join
	// the package's file list; external test files (package foo_test)
	// become a separate Package with External set. The invariant suite
	// then applies to test code as well (individual analyzers may still
	// exempt test files where real time or test-only shortcuts are
	// legitimate).
	IncludeTests bool
}

// ModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func ModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves package patterns relative to the module rooted at root,
// parses each matched directory into a Package, and runs the go/types
// checker over all of them. Patterns follow the go tool: a path selects one
// directory; a path ending in "/..." selects the directory and everything
// below it. Directories named testdata or vendor, and hidden directories,
// are skipped, as are _test.go files — use LoadWith to include tests.
func Load(root string, patterns []string) ([]*Package, error) {
	return LoadWith(root, patterns, LoadConfig{})
}

// LoadWith is Load with explicit configuration.
func LoadWith(root string, patterns []string, cfg LoadConfig) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, pat)
		}
		info, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q is not a directory", pat)
		}
		if !recursive {
			dirs[base] = true
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	mod := newModule(root)
	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			rel = ""
		}
		loaded, err := loadDirWith(dir, filepath.ToSlash(rel), cfg)
		if err != nil {
			return nil, err
		}
		for _, pkg := range loaded {
			pkg.Module = mod
			key := pkg.Path
			if pkg.External {
				key += " [test]"
			}
			mod.pkgs[key] = pkg
			pkgs = append(pkgs, pkg)
		}
	}
	for _, pkg := range pkgs {
		mod.check(pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the non-test Go files of one directory into
// a Package with the given module-relative path; if dir is <root>/<path>, a
// module import resolves to a stub under <root>, else to a placeholder. It
// returns (nil, nil) if the directory holds no non-test Go files.
func LoadDir(dir, path string) (*Package, error) {
	pkgs, err := LoadDirWith(dir, path, LoadConfig{})
	if err != nil || len(pkgs) == 0 {
		return nil, err
	}
	return pkgs[0], nil
}

// LoadDirWith is LoadDir with explicit configuration; with IncludeTests it
// can return two packages (the package and its external test package).
func LoadDirWith(dir, path string, cfg LoadConfig) ([]*Package, error) {
	loaded, err := loadDirWith(dir, path, cfg)
	if err != nil {
		return nil, err
	}
	root, ok := strings.CutSuffix(filepath.Clean(dir), string(filepath.Separator)+filepath.FromSlash(path))
	if !ok {
		root = ""
	}
	mod := newModule(root)
	for _, pkg := range loaded {
		pkg.Module = mod
		key := pkg.Path
		if pkg.External {
			key += " [test]"
		}
		mod.pkgs[key] = pkg
	}
	for _, pkg := range loaded {
		mod.check(pkg)
	}
	return loaded, nil
}

// loadDirWith parses one directory without type-checking. Build-constrained
// files (//go:build tags, GOOS/GOARCH file name suffixes, "ignore" tags) are
// matched against the host context exactly as the go tool would, so a
// dissatisfied constraint excludes the file here too.
func loadDirWith(dir, path string, cfg LoadConfig) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Fset: sharedFset}
	ext := &Package{Path: path, Dir: dir, Fset: sharedFset, External: true}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !cfg.IncludeTests {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		target := pkg
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			target = ext
		}
		if target.Name == "" {
			target.Name = f.Name.Name
		}
		target.Files = append(target.Files, f)
	}
	var out []*Package
	if len(pkg.Files) > 0 {
		out = append(out, pkg)
	}
	if len(ext.Files) > 0 {
		out = append(out, ext)
	}
	return out, nil
}
