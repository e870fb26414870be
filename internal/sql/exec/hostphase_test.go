package exec_test

import (
	"reflect"
	"testing"

	"ironsafe/internal/sql/exec"
)

// maxAllocsPerShippedRow bounds what the host phase may allocate per row it
// was shipped. Boxing one row is at least one allocation, so a quarter of one
// per row can only hold while nothing between the replies' bytes and the select
// list boxes per row: the scans copy kept columns into vectors, the joins and
// filters pass positions, the subquery caches and the grouping read batches of
// those — and a string column is decoded into one string, not one per row
// (q13's o_comment). What is left grows with the result and the groups, not
// with the input.
const maxAllocsPerShippedRow = 0.25

// TestHostPhaseAllocBudget is the gate under "nothing boxed that is not
// returned" for the three host phases that carry scs-subquery (see
// BenchmarkHostPhase). It also holds each to the statement's result over the
// unsplit tables.
func TestHostPhaseAllocBudget(t *testing.T) {
	for _, q := range []int{13, 18, 21} {
		hp := newHostPhase(t, q)
		want, err := exec.RunBatched(hp.sel, tpchOnce(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := hp.run(t); len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("q%d: the host phase over the replies returns %d rows, the statement over the tables %d", q, len(got.Rows), len(want.Rows))
		}
		allocs := testing.AllocsPerRun(2, func() { hp.run(t) })
		t.Logf("q%d: %.0f allocations over %d shipped rows (%.3f per row)", q, allocs, hp.shipped, allocs/float64(hp.shipped))
		if allocs > maxAllocsPerShippedRow*float64(hp.shipped) {
			t.Errorf("q%d: %.0f allocations for %d shipped rows, %.2f per row; the budget is %.2f",
				q, allocs, hp.shipped, allocs/float64(hp.shipped), maxAllocsPerShippedRow)
		}
	}
}
