package exec

import (
	"strings"
	"testing"

	"ironsafe/internal/sql/parser"
)

func explain(t *testing.T, sql string) (*Result, string) {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := Explain(sel, testCatalog(), nil)
	if err != nil {
		t.Fatalf("explain %q: %v", sql, err)
	}
	return res, tr.String()
}

func TestExplainScanAndFilter(t *testing.T) {
	_, plan := explain(t, "SELECT name FROM users WHERE country = 'DE'")
	if !strings.Contains(plan, "scan users") {
		t.Errorf("no scan line:\n%s", plan)
	}
	if !strings.Contains(plan, "filter") || !strings.Contains(plan, "4 -> 2 rows") {
		t.Errorf("no filter cardinality:\n%s", plan)
	}
}

func TestExplainHashJoin(t *testing.T) {
	_, plan := explain(t, "SELECT u.name FROM users u, orders o WHERE u.id = o.uid")
	if !strings.Contains(plan, "hash join on [u.id]") && !strings.Contains(plan, "hash join on [o.uid]") {
		t.Errorf("no hash join line:\n%s", plan)
	}
}

func TestExplainCrossJoin(t *testing.T) {
	_, plan := explain(t, "SELECT count(*) FROM users, items")
	if !strings.Contains(plan, "cross join") {
		t.Errorf("no cross join line:\n%s", plan)
	}
}

func TestExplainLeftJoinAndAggregate(t *testing.T) {
	_, plan := explain(t, `SELECT u.name, count(o.oid) FROM users u
		LEFT OUTER JOIN orders o ON u.id = o.uid GROUP BY u.name ORDER BY u.name`)
	if !strings.Contains(plan, "left outer join") {
		t.Errorf("no outer join line:\n%s", plan)
	}
	if !strings.Contains(plan, "hash aggregate") {
		t.Errorf("no aggregate line:\n%s", plan)
	}
	if !strings.Contains(plan, "sort") {
		t.Errorf("no sort line:\n%s", plan)
	}
}

func TestExplainDecorrelatedSubquery(t *testing.T) {
	_, plan := explain(t, `SELECT name FROM users u WHERE EXISTS (
		SELECT * FROM orders o WHERE o.uid = u.id)`)
	if !strings.Contains(plan, "decorrelated on 1 key(s)") {
		t.Errorf("no decorrelation line:\n%s", plan)
	}
}

func TestExplainUncorrelatedSubquery(t *testing.T) {
	_, plan := explain(t, `SELECT name FROM users WHERE id IN (SELECT uid FROM orders)`)
	if !strings.Contains(plan, "uncorrelated, executed once") {
		t.Errorf("no uncorrelated line:\n%s", plan)
	}
}

func TestExplainLimit(t *testing.T) {
	res, plan := explain(t, "SELECT oid FROM orders ORDER BY amount DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Errorf("limit result = %d rows", len(res.Rows))
	}
	if !strings.Contains(plan, "limit 2") {
		t.Errorf("no limit line:\n%s", plan)
	}
}

func TestExplainResultMatchesRun(t *testing.T) {
	sql := "SELECT uid, sum(amount) FROM orders GROUP BY uid ORDER BY uid"
	sel, _ := parser.ParseSelect(sql)
	direct, err := Run(sel, testCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	viaExplain, tr, err := Explain(sel, testCatalog(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Rows) != len(viaExplain.Rows) {
		t.Errorf("explain changed the result: %d vs %d rows", len(direct.Rows), len(viaExplain.Rows))
	}
	if len(tr.Lines()) == 0 {
		t.Error("empty trace")
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.addf("should not panic")
	if tr.String() != "" {
		t.Error("nil trace rendered content")
	}
}

// TestCommonDisjunctsHoistInOrder plans a statement of TPC-H q19's shape — a
// join key and two single-table conjuncts repeated in every OR branch — many
// times over: the conjuncts hoisted out of the OR reach the pushdown in the
// order the first branch wrote them, so there is one trace, not one per map
// iteration order.
func TestCommonDisjunctsHoistInOrder(t *testing.T) {
	sql := `SELECT count(*) FROM orders o, users u WHERE
		   (u.id = o.uid AND u.country = 'DE' AND o.status IN ('OK', 'PENDING') AND o.amount < 90 AND o.odate < date '1996-06-01')
		OR (u.id = o.uid AND u.country = 'PT' AND o.status IN ('OK', 'PENDING') AND o.amount < 90 AND o.odate < date '1996-06-01')
		OR (u.id = o.uid AND u.country = 'UK' AND o.status IN ('OK', 'PENDING') AND o.amount < 90 AND o.odate < date '1996-06-01')`
	res, first := explain(t, sql)
	if got := res.Rows[0][0].AsInt(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	want := "filter (((o.status IN ('OK', 'PENDING')) AND (o.amount < 90)) AND (o.odate < date '1996-06-01')): 5 -> 4 rows"
	if !strings.Contains(first, want) || !strings.Contains(first, "hash join on [o.uid]") {
		t.Errorf("want the common conjuncts pushed down in the order written, %q, and the common key joined on:\n%s", want, first)
	}
	for i := 0; i < 50; i++ {
		if _, again := explain(t, sql); again != first {
			t.Fatalf("run %d planned differently:\n%s\nfirst:\n%s", i, again, first)
		}
	}
}
