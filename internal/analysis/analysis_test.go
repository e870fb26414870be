package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ironsafe/internal/analysis"
)

// TestRepoClean runs the full suite over the repository itself: the
// acceptance bar is that shipped code carries no un-annotated violations.
// Any new finding either needs a fix or a reviewed //ironsafe:allow
// directive with a rationale.
func TestRepoClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; pattern expansion is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		findings, err := analysis.RunAnalyzers(pkg, analysis.Suite())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// TestLoaderSkipsTestdata ensures golden violation packages never leak into
// a repo-wide run.
func TestLoaderSkipsTestdata(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if strings.Contains(filepath.ToSlash(pkg.Dir), "/testdata/") {
			t.Errorf("loader descended into testdata: %s", pkg.Dir)
		}
	}
}

// TestSuiteNames pins the analyzer names the allow directives reference.
func TestSuiteNames(t *testing.T) {
	var names []string
	for _, a := range analysis.Suite() {
		names = append(names, a.Name)
	}
	want := []string{"wallclock", "cryptorand", "noncereuse", "boundary", "rawnet", "journalbypass", "readmit", "budgetless", "lockcrypto", "plainflow", "failopen", "policypath", "earlyack", "rowloop", "metercharge", "directive"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("suite = %v, want %v", names, want)
	}
	if _, ok := analysis.ByName([]string{"wallclock", "boundary", "plainflow"}); !ok {
		t.Fatal("ByName rejected valid names")
	}
	if _, ok := analysis.ByName([]string{"nonexistent"}); ok {
		t.Fatal("ByName accepted an unknown name")
	}
}

// TestModuleTypeChecks asserts the go/types checker produces clean results
// for every real module package: the dataflow analyzers are only as strong
// as the type information under them, so a type error in shipped code would
// silently degrade them to "unknown callee" syntactic matching.
func TestModuleTypeChecks(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.TypesInfo == nil {
			t.Errorf("%s: no type information", pkg.Path)
			continue
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
}

// TestDirectiveInventory asserts every allow directive in the repo carries
// a rationale — the machine-checked form of "each suppression is explained".
func TestDirectiveInventory(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pkg := range pkgs {
		for _, d := range analysis.CollectDirectives(pkg) {
			total++
			if d.Rationale == "" {
				t.Errorf("%s: allow directive for %v has no rationale", d.Pos, d.Analyzers)
			}
		}
	}
	if total == 0 {
		t.Fatal("no allow directives found in the repo; CollectDirectives is broken")
	}
}
