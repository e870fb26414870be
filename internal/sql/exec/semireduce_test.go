package exec_test

import (
	"strings"
	"testing"

	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tpch"
)

// TestSemiReductionTPCH pins, at SF 0.01, what semi-join reduction does to the
// scans of the TPC-H join and subquery queries: per reduced scan the rows its
// predicate kept and the rows it boxed. The reducers are chosen by what the
// executor observes, so these lines are a function of the data: q7's lineitem
// (19 307 rows after its predicate) is more than the orders table it could
// filter, and q9's partsupp and orders scans box their first window before
// lineitem's 5 981 keys are worth building. A source named <outer> is the
// input of the operator that evaluates a decorrelated subquery, reducing the
// subquery's inner scan; IN (<subquery>) is an uncorrelated IN conjunct's set,
// reducing a scan of the statement that holds the conjunct. q13 has no
// subquery predicate and q16's is a NOT IN: neither is reduced.
func TestSemiReductionTPCH(t *testing.T) {
	for q, want := range map[int][]string{
		2: {
			"semi-join reduce on [ps_partkey] from part: 8000 -> 60 rows (8000 probed)",
			"semi-join reduce on [ps_partkey] from <outer>: 8000 -> 16 rows (8000 probed)",
			"semi-join reduce on [s_suppkey] from partsupp: 100 -> 16 rows (100 probed)",
			"semi-join reduce on [n_nationkey] from supplier: 25 -> 13 rows (25 probed)",
		},
		4:  {"semi-join reduce on [l_orderkey] from <outer>: 37895 -> 1558 rows (37895 probed)"},
		13: nil,
		16: nil,
		17: {"semi-join reduce on [l2.l_partkey] from <outer>: 59882 -> 33 rows (59882 probed)"},
		18: {
			"semi-join reduce on [o_orderkey] from IN (<subquery>): 15000 -> 1 rows (15000 probed)",
			"semi-join reduce on [l_orderkey] from orders: 59882 -> 7 rows (59882 probed)",
		},
		20: {
			"semi-join reduce on [ps_partkey] from IN (<subquery>): 7927 -> 142 rows (7927 probed)",
			"semi-join reduce on [s_suppkey] from IN (<subquery>): 100 -> 75 rows (100 probed)",
		},
		21: {
			"semi-join reduce on [l2.l_orderkey] from <outer>: 59882 -> 5453 rows (59882 probed)",
			"semi-join reduce on [l3.l_orderkey] from <outer>: 37895 -> 3826 rows (37895 probed)",
		},
		22: {"semi-join reduce on [o_custkey] from <outer>: 15000 -> 4349 rows (15000 probed)"},
		3: {
			"semi-join reduce on [o_custkey] from customer: 7797 -> 1343 rows (7797 probed)",
			"semi-join reduce on [l_orderkey] from orders: 30495 -> 314 rows (30495 probed)",
		},
		5: {"semi-join reduce on [l_orderkey] from orders: 59882 -> 9523 rows (59882 probed)"},
		7: nil,
		8: {
			"semi-join reduce on [l_partkey] from part: 59882 -> 326 rows (59882 probed)",
			"semi-join reduce on [o_orderkey] from lineitem: 4848 -> 98 rows (4848 probed)",
			"semi-join reduce on [c_custkey] from orders: 1500 -> 96 rows (1500 probed)",
		},
		9: {
			"semi-join reduce on [l_partkey] from part: 59882 -> 5981 rows (59882 probed)",
			"semi-join reduce on [ps_suppkey, ps_partkey] from lineitem: 8000 -> 4472 rows (3904 probed)",
			"semi-join reduce on [o_orderkey] from lineitem: 15000 -> 7666 rows (10904 probed)",
		},
		10: {"semi-join reduce on [l_orderkey] from orders: 15833 -> 1240 rows (15833 probed)"},
	} {
		sel, err := parser.ParseSelect(tpch.Queries[q])
		if err != nil {
			t.Fatal(err)
		}
		_, tr, err := exec.Explain(sel, tpchOnce(), nil)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		var got []string
		for _, line := range tr.Lines() {
			if strings.HasPrefix(line, "semi-join reduce") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("q%d reduced scans:\n%s\nwant:\n%s", q, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
