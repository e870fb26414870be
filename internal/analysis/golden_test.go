package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ironsafe/internal/analysis"
	"ironsafe/internal/analysis/analysistest"
)

// What a golden package asserts about its analyzer.
const (
	flags  = iota // every `// want` in it is reported, and nothing else
	allows        // allow directives suppress what the analyzer reports without them
	quiet         // out of the analyzer's scope, or no violation: nothing is reported
)

type goldenCase struct {
	test, analyzer string
	kind           int
	pkg            string
}

// golden is the table of golden testdata packages (testdata/src/<pkg>). Each
// row is one test, named in its first column, running one analyzer over one
// package. TestGoldenCoverage holds every analyzer of the suite to at least
// one flags row and one allows row, so a rule whose matcher matches nothing
// fails instead of passing silently.
var golden = []goldenCase{
	{"TestWallclock", "wallclock", flags, "wallclock"},
	{"TestWallclockAllowDirective", "wallclock", allows, "wallclockallow"},
	{"TestCryptorandCritical", "cryptorand", flags, "internal/tee/badrand"},
	{"TestCryptorandNonCritical", "cryptorand", flags, "plainrand"},
	{"TestCryptorandAllowDirective", "cryptorand", allows, "internal/tee/okrand"},
	{"TestCryptorandAllowlistedPath", "cryptorand", quiet, "internal/tpch"},
	{"TestNonceReuseCounterDerivation", "noncereuse", flags, "noncereuse"},
	{"TestNonceReuseAllowDirective", "noncereuse", allows, "noncereuseallow"},
	{"TestBoundaryEnclaveImport", "boundary", flags, "internal/engine/teeimport"},
	{"TestBoundaryRawNet", "boundary", flags, "internal/engine/rawnet"},
	{"TestBoundarySecretPayload", "boundary", flags, "internal/pager/sendsecret"},
	{"TestBoundaryAllowDirective", "boundary", allows, "internal/engine/boundaryallow"},
	{"TestBoundaryTrustedSet", "boundary", quiet, "internal/monitor/trusted"},
	{"TestRawnetNakedDialAndConnIO", "rawnet", flags, "internal/ctl/nakeddial"},
	{"TestRawnetAllowDirective", "rawnet", allows, "internal/ctl/rawnetallow"},
	{"TestRawnetExemptWrapper", "rawnet", quiet, "internal/resilience/wrapperexempt"},
	{"TestJournalbypassDirectWrites", "journalbypass", flags, "internal/securestore/journalbypass"},
	{"TestJournalbypassAllowDirective", "journalbypass", allows, "internal/securestore/journalallow"},
	{"TestJournalbypassScopedToSecurestore", "journalbypass", quiet, "internal/pager/devwrite"},
	{"TestReadmitOutsideProtocol", "readmit", flags, "readmit"},
	{"TestReadmitAllowDirective", "readmit", allows, "readmitallow"},
	{"TestReadmitExemptsHealthTracker", "readmit", quiet, "internal/resilience/markup"},
	{"TestBudgetlessOffloadPath", "budgetless", flags, "internal/hostengine/budgetless"},
	{"TestBudgetlessAllowDirective", "budgetless", allows, "internal/hostengine/budgetlessallow"},
	{"TestBudgetlessScopedToOffloadSubtree", "budgetless", quiet, "budgetlessout"},
	{"TestLockcryptoUnderMutex", "lockcrypto", flags, "internal/securestore/lockcrypto"},
	{"TestLockcryptoAllowDirective", "lockcrypto", allows, "internal/securestore/lockcryptoallow"},
	{"TestLockcryptoScopedToSecurestore", "lockcrypto", quiet, "internal/pager/lockedcipher"},
	{"TestPlainflow", "plainflow", flags, "internal/securestore/plainflow"},
	{"TestPlainflowTicketSecret", "plainflow", flags, "internal/transport/ticketflow"},
	{"TestPlainflowAllowDirective", "plainflow", allows, "internal/securestore/plainflowallow"},
	{"TestFailopen", "failopen", flags, "failopen"},
	{"TestSealerr", "failopen", flags, "sealerr"},
	{"TestFailopenAllowDirective", "failopen", allows, "failopenallow"},
	{"TestSealerrAllowDirective", "failopen", allows, "sealerrallow"},
	{"TestPolicypath", "policypath", flags, "cmd/policypath"},
	{"TestPolicypathAllowDirective", "policypath", allows, "cmd/policypathallow"},
	{"TestPolicypathScope", "policypath", quiet, "internal/pager/policyscope"},
	{"TestEarlyackUndominatedDeliveries", "earlyack", flags, "internal/ingest/earlyack"},
	{"TestEarlyackAllowDirective", "earlyack", allows, "internal/ingest/earlyackallow"},
	{"TestEarlyackScopedToIngest", "earlyack", quiet, "earlyackout"},
	{"TestRowloopScanLoops", "rowloop", flags, "internal/sql/exec/rowloop"},
	{"TestRowloopAllowDirective", "rowloop", allows, "internal/sql/exec/rowloopallow"},
	{"TestRowloopScopedToExec", "rowloop", quiet, "rowloopout"},
	{"TestMeterchargeSpillModel", "metercharge", flags, "internal/storageengine/metercharge"},
	{"TestMeterchargeAllowDirective", "metercharge", allows, "internal/storageengine/meterchargeallow"},
	{"TestMeterchargeOwnerCharges", "metercharge", quiet, "internal/securestore/meterowner"},
	{"TestDirective", "directive", flags, "directive"},
	{"TestDirectiveAllowDirective", "directive", allows, "directiveallow"},
}

func TestWallclock(t *testing.T)                        { runGolden(t) }
func TestWallclockAllowDirective(t *testing.T)          { runGolden(t) }
func TestCryptorandCritical(t *testing.T)               { runGolden(t) }
func TestCryptorandNonCritical(t *testing.T)            { runGolden(t) }
func TestCryptorandAllowDirective(t *testing.T)         { runGolden(t) }
func TestCryptorandAllowlistedPath(t *testing.T)        { runGolden(t) }
func TestNonceReuseCounterDerivation(t *testing.T)      { runGolden(t) }
func TestNonceReuseAllowDirective(t *testing.T)         { runGolden(t) }
func TestBoundaryEnclaveImport(t *testing.T)            { runGolden(t) }
func TestBoundaryRawNet(t *testing.T)                   { runGolden(t) }
func TestBoundarySecretPayload(t *testing.T)            { runGolden(t) }
func TestBoundaryAllowDirective(t *testing.T)           { runGolden(t) }
func TestBoundaryTrustedSet(t *testing.T)               { runGolden(t) }
func TestRawnetNakedDialAndConnIO(t *testing.T)         { runGolden(t) }
func TestRawnetAllowDirective(t *testing.T)             { runGolden(t) }
func TestRawnetExemptWrapper(t *testing.T)              { runGolden(t) }
func TestJournalbypassDirectWrites(t *testing.T)        { runGolden(t) }
func TestJournalbypassAllowDirective(t *testing.T)      { runGolden(t) }
func TestJournalbypassScopedToSecurestore(t *testing.T) { runGolden(t) }
func TestReadmitOutsideProtocol(t *testing.T)           { runGolden(t) }
func TestReadmitAllowDirective(t *testing.T)            { runGolden(t) }
func TestReadmitExemptsHealthTracker(t *testing.T)      { runGolden(t) }
func TestBudgetlessOffloadPath(t *testing.T)            { runGolden(t) }
func TestBudgetlessAllowDirective(t *testing.T)         { runGolden(t) }
func TestBudgetlessScopedToOffloadSubtree(t *testing.T) { runGolden(t) }
func TestLockcryptoUnderMutex(t *testing.T)             { runGolden(t) }
func TestLockcryptoAllowDirective(t *testing.T)         { runGolden(t) }
func TestLockcryptoScopedToSecurestore(t *testing.T)    { runGolden(t) }
func TestPlainflow(t *testing.T)                        { runGolden(t) }
func TestPlainflowTicketSecret(t *testing.T)            { runGolden(t) }
func TestPlainflowAllowDirective(t *testing.T)          { runGolden(t) }
func TestFailopen(t *testing.T)                         { runGolden(t) }
func TestSealerr(t *testing.T)                          { runGolden(t) }
func TestFailopenAllowDirective(t *testing.T)           { runGolden(t) }
func TestSealerrAllowDirective(t *testing.T)            { runGolden(t) }
func TestPolicypath(t *testing.T)                       { runGolden(t) }
func TestPolicypathAllowDirective(t *testing.T)         { runGolden(t) }
func TestPolicypathScope(t *testing.T)                  { runGolden(t) }
func TestEarlyackUndominatedDeliveries(t *testing.T)    { runGolden(t) }
func TestEarlyackAllowDirective(t *testing.T)           { runGolden(t) }
func TestEarlyackScopedToIngest(t *testing.T)           { runGolden(t) }
func TestRowloopScanLoops(t *testing.T)                 { runGolden(t) }
func TestRowloopAllowDirective(t *testing.T)            { runGolden(t) }
func TestRowloopScopedToExec(t *testing.T)              { runGolden(t) }
func TestMeterchargeSpillModel(t *testing.T)            { runGolden(t) }
func TestMeterchargeAllowDirective(t *testing.T)        { runGolden(t) }
func TestMeterchargeOwnerCharges(t *testing.T)          { runGolden(t) }
func TestDirective(t *testing.T)                        { runGolden(t) }
func TestDirectiveAllowDirective(t *testing.T)          { runGolden(t) }

// runGolden runs the golden row named after the test.
func runGolden(t *testing.T) {
	i := slices.IndexFunc(golden, func(g goldenCase) bool { return g.test == t.Name() })
	if i < 0 {
		t.Fatalf("%s has no golden row", t.Name())
	}
	g := golden[i]
	as, ok := analysis.ByName([]string{g.analyzer})
	if !ok {
		t.Fatalf("golden row %s names unknown analyzer %q", g.test, g.analyzer)
	}
	analysistest.Run(t, "testdata", as[0], g.pkg)
	if wants := hasWants(t, g.pkg); wants != (g.kind == flags) {
		t.Errorf("%s: package declares // want = %v; only flags packages do", g.pkg, wants)
	}
	if g.kind == allows && len(findingsWithoutAllows(t, as[0], g.pkg)) == 0 {
		t.Errorf("%s: without its %s directives the analyzer reports nothing, so they suppress nothing", g.pkg, g.analyzer)
	}
}

// TestGoldenCoverage holds the table to the suite: every analyzer has a
// package it must flag and one where a directive suppresses it, and every row
// has its test function.
func TestGoldenCoverage(t *testing.T) {
	src, err := os.ReadFile("golden_test.go")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]map[int]bool{}
	for _, g := range golden {
		if !strings.Contains(string(src), "func "+g.test+"(t *testing.T)") {
			t.Errorf("golden row %s has no test function", g.test)
		}
		if kinds[g.analyzer] == nil {
			kinds[g.analyzer] = map[int]bool{}
		}
		kinds[g.analyzer][g.kind] = true
	}
	for _, a := range analysis.Suite() {
		if !kinds[a.Name][flags] || !kinds[a.Name][allows] {
			t.Errorf("analyzer %s needs a golden package it flags and one where an allow directive suppresses it", a.Name)
		}
	}
}

func hasWants(t *testing.T, pkgPath string) bool {
	files, err := filepath.Glob(filepath.Join("testdata", "src", filepath.FromSlash(pkgPath), "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "// want ") {
			return true
		}
	}
	return false
}

// findingsWithoutAllows runs a over the golden package with every allow
// directive that names a turned into a plain comment.
func findingsWithoutAllows(t *testing.T, a *analysis.Analyzer, pkgPath string) []analysis.Finding {
	pkg, err := analysis.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(pkgPath)), pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, analysis.DirectivePrefix+" ")
				if fields := strings.Fields(rest); ok && len(fields) > 0 && slices.Contains(strings.Split(fields[0], ","), a.Name) {
					c.Text = "//"
				}
			}
		}
	}
	findings, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}
