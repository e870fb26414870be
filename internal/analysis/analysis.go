// Package analysis is IronSafe's static-analysis suite: repo-specific vet
// passes that enforce the security invariants the Go compiler cannot check —
// no wall-clock reads on the simulated cost-model path, no weak randomness in
// security packages, no unhandled errors from seal/open/verify/attest and
// policy calls, and no enclave-private state or raw network channels leaking
// across the TEE boundary.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) on the standard library only: this build
// environment vendors no third-party modules. The loader type-checks the
// whole module with a tolerant importer (typecheck.go), and every analyzer
// reads go/types: the call- and import-site checks are rows of one table
// (rules.go) whose function rules resolve uses to their function objects;
// plainflow runs a forward taint engine with one-call-deep function summaries
// (taint.go), whose matcher failopen and policypath share; the rest walk each
// function's AST. If x/tools ever becomes vendorable the analyzers port to
// real *analysis.Analyzer values almost mechanically (see DESIGN.md, "Static
// analysis & invariants").
//
// # Allow directives
//
// Every diagnostic can be suppressed at a specific line with a directive
// comment, on the flagged line or the line immediately above it:
//
//	//ironsafe:allow <check>[,<check>...] -- <rationale>
//
// where <check> is an analyzer name (wallclock, cryptorand, noncereuse,
// boundary, rawnet, journalbypass, readmit, budgetless, lockcrypto,
// plainflow, failopen, policypath, earlyack, rowloop, metercharge,
// directive). The rationale text is mandatory — the directive analyzer flags
// suppressions without one — and should say why the invariant genuinely does
// not apply; directives are grep-able so reviews can audit every escape hatch
// in one pass.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package, reporting violations via
	// pass.Reportf. It returns an error only for operational failures, not
	// for findings.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one package's parsed syntax and type
// information.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the module-relative package path: "" for the module root
	// package, "internal/tee/sgx", "cmd/ironsafe-vet", ... Analyzers scope
	// their rules on this path.
	Path string
	// Files holds the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the full package, including go/types results (Pkg.TypesInfo)
	// and the Module back-reference for cross-package summaries. Type
	// information is tolerant: analyzers must treat missing entries as
	// "unknown", not as errors.
	Pkg *Package

	report func(Diagnostic)
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name, set by the driver
	Message  string
}

// Reportf reports a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a resolved diagnostic (position mapped through the FileSet),
// ready for printing or test comparison.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// DirectivePrefix introduces an allow directive comment.
const DirectivePrefix = "//ironsafe:allow"

// allowSet maps file name -> line -> set of allowed analyzer names.
type allowSet map[string]map[int]map[string]bool

// parseAllows collects every allow directive in the package.
func parseAllows(fset *token.FileSet, files []*ast.File) allowSet {
	allows := allowSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := allows[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					allows[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = map[string]bool{}
					lines[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return allows
}

// parseDirective extracts the analyzer names from one comment, reporting
// whether the comment is an allow directive at all.
func parseDirective(text string) ([]string, bool) {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return nil, false
	}
	rest := text[len(DirectivePrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // e.g. //ironsafe:allowx
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, false
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, len(names) > 0
}

// allowed reports whether a diagnostic from analyzer name at position pos is
// covered by a directive on the same line or the line immediately above.
func (a allowSet) allowed(name string, pos token.Position) bool {
	lines := a[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if set := lines[line]; set != nil && set[name] {
			return true
		}
	}
	return false
}

// RunAnalyzers applies each analyzer to the package, filters diagnostics
// through the package's allow directives, and returns the surviving findings
// sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	allows := parseAllows(pkg.Fset, pkg.Files)
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg,
		}
		pass.report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if allows.allowed(a.Name, pos) {
				return
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// importsOf resolves the file's imports to a map from local name to import
// path. Unnamed imports use the last path element (the convention every
// stdlib and in-repo package follows); dot and blank imports are recorded
// under "." and "_" and additionally reachable via pathsOf.
func importsOf(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		m[name] = path
	}
	return m
}

// hasPrefixPath reports whether pkg path p is exactly prefix or nested under
// it ("internal/tee" covers "internal/tee" and "internal/tee/sgx", not
// "internal/teeth").
func hasPrefixPath(p, prefix string) bool {
	if prefix == "" {
		return true
	}
	return p == prefix || strings.HasPrefix(p, prefix+"/")
}

// pathInPrefixes reports whether path is under one of prefixes, where ""
// stands for the module root package alone.
func pathInPrefixes(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if p == "" && path == "" || p != "" && hasPrefixPath(path, p) {
			return true
		}
	}
	return false
}
