package exec

import (
	"fmt"
	"strings"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/value"
)

// memCatalog is a trivial test catalog.
type memCatalog map[string]*MemRelation

func (c memCatalog) Relation(name string) (Relation, error) {
	r, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return r, nil
}

// testCatalog builds a small airline-ish dataset.
func testCatalog() memCatalog {
	d := func(s string) value.Value { return value.MustParseDate(s) }
	return memCatalog{
		"users": &MemRelation{
			Sch: schema.New(
				schema.Col("id", value.KindInt),
				schema.Col("name", value.KindString),
				schema.Col("country", value.KindString),
				schema.Col("age", value.KindInt),
			),
			Rows: []schema.Row{
				{value.Int(1), value.Str("alice"), value.Str("DE"), value.Int(34)},
				{value.Int(2), value.Str("bob"), value.Str("PT"), value.Int(28)},
				{value.Int(3), value.Str("carol"), value.Str("DE"), value.Int(45)},
				{value.Int(4), value.Str("dave"), value.Str("UK"), value.Null()},
			},
		},
		"orders": &MemRelation{
			Sch: schema.New(
				schema.Col("oid", value.KindInt),
				schema.Col("uid", value.KindInt),
				schema.Col("amount", value.KindFloat),
				schema.Col("odate", value.KindDate),
				schema.Col("status", value.KindString),
			),
			Rows: []schema.Row{
				{value.Int(100), value.Int(1), value.Float(50), d("1995-01-10"), value.Str("OK")},
				{value.Int(101), value.Int(1), value.Float(75), d("1995-02-10"), value.Str("OK")},
				{value.Int(102), value.Int(2), value.Float(20), d("1995-03-10"), value.Str("PENDING")},
				{value.Int(103), value.Int(3), value.Float(99), d("1996-01-10"), value.Str("OK")},
				{value.Int(104), value.Int(9), value.Float(11), d("1996-02-10"), value.Str("OK")},
			},
		},
		"items": &MemRelation{
			Sch: schema.New(
				schema.Col("oid", value.KindInt),
				schema.Col("sku", value.KindString),
				schema.Col("qty", value.KindInt),
			),
			Rows: []schema.Row{
				{value.Int(100), value.Str("widget"), value.Int(2)},
				{value.Int(100), value.Str("gadget"), value.Int(1)},
				{value.Int(101), value.Str("widget"), value.Int(5)},
				{value.Int(103), value.Str("doohickey"), value.Int(3)},
			},
		},
	}
}

func q(t *testing.T, sql string) *Result {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(sel, testCatalog(), nil)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return res
}

func qErr(t *testing.T, sql string) error {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Run(sel, testCatalog(), nil)
	if err == nil {
		t.Fatalf("expected error for %q", sql)
	}
	return err
}

func TestSelectNoFrom(t *testing.T) {
	res := q(t, "SELECT 1 + 2 AS three, 'x' AS s")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 3 || res.Rows[0][1].AsString() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Sch.Columns[0].Name != "three" {
		t.Errorf("schema = %v", res.Sch)
	}
}

func TestSimpleScanFilter(t *testing.T) {
	res := q(t, "SELECT name FROM users WHERE country = 'DE'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "alice" || res.Rows[1][0].AsString() != "carol" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectStarExpansion(t *testing.T) {
	res := q(t, "SELECT * FROM users WHERE id = 1")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
		t.Errorf("star = %v", res.Rows)
	}
}

func TestNullComparisonFiltersOut(t *testing.T) {
	// dave has NULL age: NULL > 30 is unknown, excluded.
	res := q(t, "SELECT name FROM users WHERE age > 30")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = q(t, "SELECT name FROM users WHERE age IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "dave" {
		t.Errorf("is null = %v", res.Rows)
	}
	res = q(t, "SELECT name FROM users WHERE age IS NOT NULL")
	if len(res.Rows) != 3 {
		t.Errorf("is not null = %v", res.Rows)
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	res := q(t, "SELECT amount * 2 AS double_amount FROM orders WHERE oid = 100")
	if res.Rows[0][0].AsFloat() != 100 {
		t.Errorf("arith = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	res := q(t, "SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 103 || res.Rows[1][0].AsInt() != 101 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByAlias(t *testing.T) {
	res := q(t, "SELECT oid, amount * 2 AS a2 FROM orders ORDER BY a2 LIMIT 1")
	if res.Rows[0][0].AsInt() != 104 {
		t.Errorf("order by alias = %v", res.Rows)
	}
}

func TestOrderByMultiKey(t *testing.T) {
	res := q(t, "SELECT country, name FROM users ORDER BY country ASC, name DESC")
	got := ""
	for _, r := range res.Rows {
		got += r[1].AsString() + ","
	}
	if got != "carol,alice,bob,dave," {
		t.Errorf("multi-key order = %q", got)
	}
}

func TestDistinct(t *testing.T) {
	res := q(t, "SELECT DISTINCT country FROM users ORDER BY country")
	if len(res.Rows) != 3 {
		t.Errorf("distinct = %v", res.Rows)
	}
}

func TestGlobalAggregates(t *testing.T) {
	res := q(t, "SELECT count(*), sum(amount), avg(amount), min(amount), max(amount) FROM orders")
	r := res.Rows[0]
	if r[0].AsInt() != 5 {
		t.Errorf("count = %v", r[0])
	}
	if r[1].AsFloat() != 255 {
		t.Errorf("sum = %v", r[1])
	}
	if r[2].AsFloat() != 51 {
		t.Errorf("avg = %v", r[2])
	}
	if r[3].AsFloat() != 11 || r[4].AsFloat() != 99 {
		t.Errorf("min/max = %v %v", r[3], r[4])
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	res := q(t, "SELECT count(*), sum(amount) FROM orders WHERE amount > 1000")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty agg = %v", res.Rows[0])
	}
}

func TestGroupBy(t *testing.T) {
	res := q(t, "SELECT uid, count(*) AS n, sum(amount) AS total FROM orders GROUP BY uid ORDER BY uid")
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsInt() != 2 || res.Rows[0][2].AsFloat() != 125 {
		t.Errorf("group uid=1 = %v", res.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	res := q(t, "SELECT uid, sum(amount) AS total FROM orders GROUP BY uid HAVING sum(amount) > 50 ORDER BY uid")
	if len(res.Rows) != 2 {
		t.Errorf("having = %v", res.Rows)
	}
}

func TestGroupByAlias(t *testing.T) {
	res := q(t, "SELECT extract(year from odate) AS y, count(*) FROM orders GROUP BY y ORDER BY y")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 1995 || res.Rows[0][1].AsInt() != 3 {
		t.Errorf("group by alias = %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	res := q(t, "SELECT count(DISTINCT country) FROM users")
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("count distinct = %v", res.Rows[0])
	}
}

func TestAggregatesIgnoreNulls(t *testing.T) {
	res := q(t, "SELECT count(age), avg(age) FROM users")
	if res.Rows[0][0].AsInt() != 3 {
		t.Errorf("count(age) = %v", res.Rows[0][0])
	}
	want := (34.0 + 28 + 45) / 3
	if res.Rows[0][1].AsFloat() != want {
		t.Errorf("avg(age) = %v, want %v", res.Rows[0][1], want)
	}
}

func TestInnerJoin(t *testing.T) {
	res := q(t, `SELECT u.name, o.amount FROM users u, orders o WHERE u.id = o.uid ORDER BY o.oid`)
	if len(res.Rows) != 4 { // order 104 has no user
		t.Fatalf("join rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "alice" {
		t.Errorf("first = %v", res.Rows[0])
	}
}

func TestThreeWayJoinGreedy(t *testing.T) {
	// items joins orders joins users; listed in connectivity-hostile order.
	res := q(t, `SELECT u.name, i.sku, i.qty FROM items i, users u, orders o
	             WHERE u.id = o.uid AND o.oid = i.oid ORDER BY i.sku, u.name`)
	if len(res.Rows) != 4 {
		t.Fatalf("3-way join = %v", res.Rows)
	}
}

func TestExplicitInnerJoin(t *testing.T) {
	res := q(t, `SELECT u.name, o.oid FROM users u JOIN orders o ON u.id = o.uid ORDER BY o.oid`)
	if len(res.Rows) != 4 {
		t.Errorf("explicit join = %v", res.Rows)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	res := q(t, `SELECT u.name, o.oid FROM users u LEFT OUTER JOIN orders o ON u.id = o.uid ORDER BY u.id, o.oid`)
	// dave (id 4) has no orders -> null-extended row.
	if len(res.Rows) != 5 {
		t.Fatalf("left join rows = %d: %v", len(res.Rows), res.Rows)
	}
	last := res.Rows[4]
	if last[0].AsString() != "dave" || !last[1].IsNull() {
		t.Errorf("null extension = %v", last)
	}
}

func TestLeftOuterJoinWithResidualOn(t *testing.T) {
	// Residual ON predicate restricts matches but keeps unmatched lefts.
	res := q(t, `SELECT u.name, count(o.oid) AS n
	             FROM users u LEFT OUTER JOIN orders o ON u.id = o.uid AND o.status = 'OK'
	             GROUP BY u.name ORDER BY u.name`)
	byName := map[string]int64{}
	for _, r := range res.Rows {
		byName[r[0].AsString()] = r[1].AsInt()
	}
	if byName["alice"] != 2 || byName["bob"] != 0 || byName["carol"] != 1 || byName["dave"] != 0 {
		t.Errorf("counts = %v", byName)
	}
}

func TestCrossJoinWhenNoKeys(t *testing.T) {
	res := q(t, "SELECT count(*) FROM users, items")
	if res.Rows[0][0].AsInt() != 16 {
		t.Errorf("cross join count = %v", res.Rows[0][0])
	}
}

func TestInListAndBetween(t *testing.T) {
	res := q(t, "SELECT oid FROM orders WHERE status IN ('OK') AND amount BETWEEN 50 AND 99 ORDER BY oid")
	if len(res.Rows) != 3 {
		t.Errorf("in/between = %v", res.Rows)
	}
	res = q(t, "SELECT oid FROM orders WHERE oid NOT IN (100, 101, 102, 103)")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 104 {
		t.Errorf("not in = %v", res.Rows)
	}
}

func TestLike(t *testing.T) {
	res := q(t, "SELECT name FROM users WHERE name LIKE '%a%' ORDER BY name")
	if len(res.Rows) != 3 { // alice, carol, dave
		t.Errorf("like = %v", res.Rows)
	}
	res = q(t, "SELECT name FROM users WHERE name LIKE '_ob'")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "bob" {
		t.Errorf("underscore like = %v", res.Rows)
	}
	res = q(t, "SELECT name FROM users WHERE name NOT LIKE '%a%' ORDER BY name")
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "bob" {
		t.Errorf("not like = %v", res.Rows)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_list", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"special requests", "%special%requests%", true},
		{"specialrequests", "%special%requests%", true},
		{"special", "%special%requests%", false},
		{"abc", "abc%def", false},
		{"PROMO BURNISHED", "PROMO%", true},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v", tc.s, tc.p, got)
		}
	}
}

func TestCaseExpr(t *testing.T) {
	res := q(t, `SELECT sum(CASE WHEN status = 'OK' THEN 1 ELSE 0 END) FROM orders`)
	if res.Rows[0][0].AsInt() != 4 {
		t.Errorf("case sum = %v", res.Rows[0][0])
	}
}

func TestDateIntervalArithmetic(t *testing.T) {
	res := q(t, `SELECT oid FROM orders WHERE odate < date '1995-04-10' - interval '1' month ORDER BY oid`)
	if len(res.Rows) != 2 { // jan 10 and feb 10 1995
		t.Errorf("interval filter = %v", res.Rows)
	}
}

func TestUncorrelatedInSubquery(t *testing.T) {
	res := q(t, `SELECT name FROM users WHERE id IN (SELECT uid FROM orders WHERE amount > 60) ORDER BY name`)
	if len(res.Rows) != 2 { // alice (75), carol (99)
		t.Errorf("in subquery = %v", res.Rows)
	}
}

func TestUncorrelatedNotInSubquery(t *testing.T) {
	res := q(t, `SELECT name FROM users WHERE id NOT IN (SELECT uid FROM orders) ORDER BY name`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "dave" {
		t.Errorf("not in subquery = %v", res.Rows)
	}
}

func TestCorrelatedExists(t *testing.T) {
	res := q(t, `SELECT name FROM users u WHERE EXISTS (SELECT * FROM orders o WHERE o.uid = u.id AND o.amount > 60) ORDER BY name`)
	if len(res.Rows) != 2 {
		t.Errorf("exists = %v", res.Rows)
	}
	res = q(t, `SELECT name FROM users u WHERE NOT EXISTS (SELECT * FROM orders o WHERE o.uid = u.id) ORDER BY name`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "dave" {
		t.Errorf("not exists = %v", res.Rows)
	}
}

func TestCorrelatedExistsWithResidual(t *testing.T) {
	// Residual references both inner and outer (q21 shape).
	res := q(t, `SELECT o1.oid FROM orders o1 WHERE EXISTS (
	                SELECT * FROM orders o2 WHERE o2.uid = o1.uid AND o2.oid <> o1.oid)
	             ORDER BY o1.oid`)
	if len(res.Rows) != 2 { // orders 100 and 101 share uid 1
		t.Errorf("residual exists = %v", res.Rows)
	}
}

func TestCorrelatedScalarAggregate(t *testing.T) {
	// q2 shape: equality-correlated MIN.
	res := q(t, `SELECT o.oid FROM orders o
	             WHERE o.amount = (SELECT min(o2.amount) FROM orders o2 WHERE o2.uid = o.uid)
	             ORDER BY o.oid`)
	// min per uid: uid1->50 (oid 100), uid2->20 (102), uid3->99 (103), uid9->11 (104)
	if len(res.Rows) != 4 {
		t.Errorf("correlated min = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 100 {
		t.Errorf("first = %v", res.Rows[0])
	}
}

func TestUncorrelatedScalarSubquery(t *testing.T) {
	res := q(t, `SELECT name FROM users WHERE id = (SELECT min(uid) FROM orders)`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "alice" {
		t.Errorf("scalar = %v", res.Rows)
	}
}

func TestInSubqueryWithGroupByHaving(t *testing.T) {
	// q18 shape: IN over a grouped subquery.
	res := q(t, `SELECT name FROM users WHERE id IN (
	                SELECT uid FROM orders GROUP BY uid HAVING sum(amount) > 100)
	             ORDER BY name`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "alice" {
		t.Errorf("grouped in = %v", res.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	res := q(t, `SELECT c, count(*) AS n FROM (
	                SELECT uid, count(*) AS c FROM orders GROUP BY uid) AS per_user
	             GROUP BY c ORDER BY c`)
	// uid1 has 2 orders; uids 2,3,9 have 1 each -> c=1:3 groups, c=2:1 group.
	if len(res.Rows) != 2 {
		t.Fatalf("derived = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsInt() != 3 {
		t.Errorf("c=1 = %v", res.Rows[0])
	}
	if res.Rows[1][0].AsInt() != 2 || res.Rows[1][1].AsInt() != 1 {
		t.Errorf("c=2 = %v", res.Rows[1])
	}
}

func TestSubstringFunc(t *testing.T) {
	res := q(t, "SELECT substring(name from 1 for 2) FROM users WHERE id = 1")
	if res.Rows[0][0].AsString() != "al" {
		t.Errorf("substring = %v", res.Rows[0][0])
	}
}

// TestErrors is the error-path table: a statement the client got wrong comes
// back as a typed error — never a panic, never rows — at every batch size,
// whichever operator (projection, pushed predicate, join filter) meets it.
func TestErrors(t *testing.T) {
	for sql, want := range map[string]string{
		"SELECT nope FROM users":                                                                 "unknown column",
		"SELECT name FROM missing_table":                                                         "no table",
		"SELECT u.name FROM users u WHERE other.col = 1":                                         "unknown column",
		"SELECT sum(name) FROM users":                                                            "SUM over VARCHAR",
		"SELECT name FROM users WHERE name = (SELECT id, name FROM users)":                       "scalar subquery",
		"SELECT substring(age FROM 1) FROM users":                                                "exec: SUBSTRING on INTEGER",
		"SELECT substring(name FROM 'x') FROM users":                                             "exec: SUBSTRING on VARCHAR position",
		"SELECT substring(name FROM 1.5) FROM users":                                             "exec: SUBSTRING on DOUBLE position",
		"SELECT substring(name FROM 1 FOR 'a') FROM users":                                       "exec: SUBSTRING on VARCHAR length",
		"SELECT name FROM users WHERE substring(age FROM 1) = 'a'":                               "exec: SUBSTRING on INTEGER",
		"SELECT name FROM users WHERE substring(name FROM 1 FOR 1.5) = 'a'":                      "exec: SUBSTRING on DOUBLE length",
		"SELECT name FROM users, orders WHERE id = uid AND substring(name FROM amount) = status": "exec: SUBSTRING on DOUBLE position",
	} {
		for _, batch := range []int{0, 1, 7} {
			_, err := RunBatched(mustParse(t, sql), testCatalog(), nil, batch)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s (batch %d): error %v, want one containing %q", sql, batch, err, want)
			}
		}
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	qErr(t, "SELECT oid FROM orders o, items i WHERE o.oid = i.oid AND qty > 1")
}

func TestMeterCharged(t *testing.T) {
	var m simtime.Meter
	sel, _ := parser.ParseSelect("SELECT count(*) FROM orders WHERE amount > 10")
	if _, err := Run(sel, testCatalog(), &m); err != nil {
		t.Fatal(err)
	}
	vec := m.Snapshot()
	if vec.TupleWork == 0 {
		t.Error("no tuple work charged")
	}
	if vec.Batches == 0 {
		t.Error("no operator batches charged (vectorized pipeline is the default)")
	}

	// Row-at-a-time mode dispatches once per row, so it must record strictly
	// more batches for the same query — and exactly the same data work: the
	// pipelines differ only in amortization, never in tuples touched.
	var mr simtime.Meter
	if _, err := RunBatched(sel, testCatalog(), &mr, 1); err != nil {
		t.Fatal(err)
	}
	row := mr.Snapshot()
	if row.Batches <= vec.Batches {
		t.Errorf("row-mode batches = %d, want > vectorized %d", row.Batches, vec.Batches)
	}
	if row.TupleWork != vec.TupleWork || row.TuplesProcessed != vec.TuplesProcessed {
		t.Errorf("data work diverges: row (work=%d, tuples=%d) vs vec (work=%d, tuples=%d)",
			row.TupleWork, row.TuplesProcessed, vec.TupleWork, vec.TuplesProcessed)
	}
}

func TestEnvCorrelationThroughRunWithEnv(t *testing.T) {
	outer := schema.New(schema.Col("x", value.KindInt)).Qualify("out")
	env := &Env{Sch: outer, Row: schema.Row{value.Int(1)}}
	sel, _ := parser.ParseSelect("SELECT name FROM users WHERE id = out.x")
	res, err := RunWithEnv(sel, testCatalog(), nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "alice" {
		t.Errorf("env correlation = %v", res.Rows)
	}
}

func TestConcatOperator(t *testing.T) {
	res := q(t, "SELECT name || '-' || country FROM users WHERE id = 1")
	if res.Rows[0][0].AsString() != "alice-DE" {
		t.Errorf("concat = %v", res.Rows[0][0])
	}
}

func TestUnaryMinusAndNot(t *testing.T) {
	res := q(t, "SELECT -amount FROM orders WHERE oid = 100")
	if res.Rows[0][0].AsFloat() != -50 {
		t.Errorf("unary minus = %v", res.Rows[0][0])
	}
	res = q(t, "SELECT name FROM users WHERE NOT (country = 'DE') ORDER BY name")
	if len(res.Rows) != 2 {
		t.Errorf("not = %v", res.Rows)
	}
}
