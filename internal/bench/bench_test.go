package bench

import (
	"bytes"
	"testing"

	"ironsafe"
)

// Small scale and query subset keep the harness tests quick; the full sweeps
// run through cmd/ironsafe-bench and the root benchmarks.
const testSF = 0.002

var testQueries = []int{1, 3, 6, 14}

func TestFig6ShapesHold(t *testing.T) {
	rows, err := Fig6(testSF, testQueries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(testQueries) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Headline property: secure split beats secure host-only on average.
	avg := AverageSecureSpeedup(rows)
	if avg <= 1 {
		t.Errorf("average secure speedup = %.2fx, want > 1x", avg)
	}
	for _, r := range rows {
		if r.ScsTime <= 0 || r.HosTime <= 0 {
			t.Errorf("q%d: zero times %+v", r.Query, r)
		}
	}
	var buf bytes.Buffer
	PrintFig6(&buf, rows)
	if buf.Len() == 0 {
		t.Error("empty fig6 output")
	}
}

func TestFig7IOReduction(t *testing.T) {
	rows, err := Fig7(testSF, []int{6, 14})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Selective queries must move less data under CS than host-only.
		if r.Reduction <= 1 {
			t.Errorf("q%d reduction = %.2f, want > 1", r.Query, r.Reduction)
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
}

func TestFig8BreakdownSumsToOne(t *testing.T) {
	rows, err := Fig8(testSF, []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sum := r.NDP + r.Freshness + r.Decrypt + r.Other
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("q%d fractions sum to %.3f", r.Query, sum)
		}
		if r.Freshness <= 0 {
			t.Errorf("q%d: no freshness cost in scs", r.Query)
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, rows)
}

func TestFig9aScsWinsAndScales(t *testing.T) {
	rows, err := Fig9a([]float64{0.001, 0.002})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scs >= r.Hos {
			t.Errorf("sf=%g: scs (%v) should beat hos (%v)", r.ScaleFactor, r.Scs, r.Hos)
		}
	}
	if rows[1].Scs <= rows[0].Scs {
		t.Errorf("scs time should grow with input: %v -> %v", rows[0].Scs, rows[1].Scs)
	}
	var buf bytes.Buffer
	PrintFig9a(&buf, rows)
}

func TestFig9bSelectivity(t *testing.T) {
	rows, err := Fig9b(testSF, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scs >= r.Hos {
			t.Errorf("%d%%: scs (%v) should beat hos (%v)", r.SelectivityPct, r.Scs, r.Hos)
		}
	}
	var buf bytes.Buffer
	PrintFig9b(&buf, rows)
}

func TestFig9cFreshnessDominates(t *testing.T) {
	rows, err := Fig9c(testSF, []int{2, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The paper reports freshness as the dominant secure-storage cost
		// (~70-80%); require it to at least dominate decryption.
		if r.FreshnessFraction <= r.DecryptFraction {
			t.Errorf("q%d: freshness %.2f <= decrypt %.2f", r.Query, r.FreshnessFraction, r.DecryptFraction)
		}
	}
	var buf bytes.Buffer
	PrintFig9c(&buf, rows)
}

func TestFig10MoreCoresHelp(t *testing.T) {
	cores := []int{1, 4, 16}
	rows, err := Fig10(testSF, []int{1, 6}, cores)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedups[16] < r.Speedups[1] {
			t.Errorf("q%d: 16-core speedup %.2f < 1-core %.2f", r.Query, r.Speedups[16], r.Speedups[1])
		}
	}
	var buf bytes.Buffer
	PrintFig10(&buf, rows, cores)
}

func TestFig12NearLinear(t *testing.T) {
	rows, err := Fig12(0.001, []int{6}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		lo := float64(r.Instances) * 0.7
		hi := float64(r.Instances) * 1.3
		if r.CumulativeNormalized < lo || r.CumulativeNormalized > hi {
			t.Errorf("instances=%d: cumulative %.2f not near linear", r.Instances, r.CumulativeNormalized)
		}
	}
	var buf bytes.Buffer
	PrintFig12(&buf, rows)
}

func TestTable3OverheadsReasonable(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Overhead <= 1 {
			t.Errorf("%s: overhead %.2fx, want > 1x (security costs something)", r.AntiPattern, r.Overhead)
		}
		if r.Overhead > 25 {
			t.Errorf("%s: overhead %.2fx implausibly high", r.AntiPattern, r.Overhead)
		}
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
}

func TestTable4Breakdown(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var total, sum int64
	for _, r := range rows {
		if r.Component == "Total" {
			total = int64(r.Time)
		} else {
			sum += int64(r.Time)
		}
	}
	if total != sum {
		t.Errorf("total %d != sum %d", total, sum)
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
}

func TestTable2HasFiveConfigs(t *testing.T) {
	if len(Table2()) != 5 {
		t.Error("Table 2 should list five configurations")
	}
}

func TestDefaultQueriesMatchPaper(t *testing.T) {
	qs := DefaultQueries()
	if len(qs) != 16 {
		t.Errorf("evaluated queries = %d, want 16", len(qs))
	}
	_ = ironsafe.IronSafe
}
