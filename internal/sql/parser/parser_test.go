package parser

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

func mustSelect(t *testing.T, sql string) *ast.Select {
	t.Helper()
	sel, err := ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

// parseExpr parses a standalone expression as the one item of a SELECT.
func parseExpr(sql string) (ast.Expr, error) {
	sel, err := ParseSelect("SELECT " + sql)
	if err != nil {
		return nil, err
	}
	if len(sel.Items) != 1 || sel.Items[0].Alias != "" {
		return nil, fmt.Errorf("%q is not one expression", sql)
	}
	return sel.Items[0].Expr, nil
}

func TestSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b AS bee FROM t WHERE a > 1")
	if len(sel.Items) != 2 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "bee" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	if len(sel.From) != 1 || sel.From[0].Table != "t" {
		t.Errorf("from = %+v", sel.From)
	}
	if sel.Where == nil {
		t.Error("where missing")
	}
	if sel.Limit != -1 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestSelectStar(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM t")
	if !sel.Items[0].Star {
		t.Error("star not parsed")
	}
}

func TestImplicitAlias(t *testing.T) {
	sel := mustSelect(t, "SELECT a x FROM t u")
	if sel.Items[0].Alias != "x" {
		t.Errorf("item alias = %q", sel.Items[0].Alias)
	}
	if sel.From[0].Alias != "u" || sel.From[0].Name() != "u" {
		t.Errorf("table alias = %q", sel.From[0].Alias)
	}
}

func TestGroupHavingOrderLimit(t *testing.T) {
	sel := mustSelect(t, `SELECT a, sum(b) FROM t GROUP BY a HAVING sum(b) > 10 ORDER BY a DESC, sum(b) ASC LIMIT 5`)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("group/having not parsed")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order = %+v", sel.OrderBy)
	}
	if sel.Limit != 5 {
		t.Errorf("limit = %d", sel.Limit)
	}
}

func TestCommaJoin(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y")
	if len(sel.From) != 3 {
		t.Fatalf("from = %d refs", len(sel.From))
	}
	for _, r := range sel.From {
		if r.Join != nil {
			t.Error("comma join should have nil Join")
		}
	}
}

func TestExplicitJoins(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y")
	if len(sel.From) != 3 {
		t.Fatalf("from = %d", len(sel.From))
	}
	if sel.From[1].Join == nil || sel.From[1].Join.Kind != ast.JoinInner {
		t.Error("inner join not parsed")
	}
	if sel.From[2].Join == nil || sel.From[2].Join.Kind != ast.JoinLeftOuter {
		t.Error("left outer join not parsed")
	}
}

func TestDerivedTable(t *testing.T) {
	sel := mustSelect(t, "SELECT x FROM (SELECT a AS x FROM t) AS sub")
	if sel.From[0].Subquery == nil || sel.From[0].Alias != "sub" {
		t.Errorf("derived table = %+v", sel.From[0])
	}
	if _, err := ParseSelect("SELECT x FROM (SELECT a FROM t)"); err == nil {
		t.Error("derived table without alias accepted")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	e, err := parseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*ast.BinaryExpr)
	if b.Op != ast.OpAdd {
		t.Fatalf("top op = %v", b.Op)
	}
	if r := b.Right.(*ast.BinaryExpr); r.Op != ast.OpMul {
		t.Errorf("precedence wrong: %s", e)
	}

	e, _ = parseExpr("a = 1 OR b = 2 AND c = 3")
	if e.(*ast.BinaryExpr).Op != ast.OpOr {
		t.Errorf("OR should bind loosest: %s", e)
	}
}

func TestDateAndInterval(t *testing.T) {
	e, err := parseExpr("date '1998-12-01' - interval '90' day")
	if err != nil {
		t.Fatal(err)
	}
	b := e.(*ast.BinaryExpr)
	lit := b.Left.(*ast.Literal)
	if lit.Value.Kind() != value.KindDate {
		t.Errorf("left kind = %v", lit.Value.Kind())
	}
	iv := b.Right.(*ast.IntervalExpr)
	if iv.N != 90 || iv.Unit != "day" {
		t.Errorf("interval = %+v", iv)
	}
	if _, err := parseExpr("date 'not-a-date'"); err == nil {
		t.Error("bad date literal accepted")
	}
}

func TestBetweenLikeInIsNull(t *testing.T) {
	e, _ := parseExpr("x BETWEEN 1 AND 10")
	if _, ok := e.(*ast.Between); !ok {
		t.Errorf("between = %T", e)
	}
	e, _ = parseExpr("x NOT BETWEEN 1 AND 10")
	if !e.(*ast.Between).Not {
		t.Error("not between")
	}
	e, _ = parseExpr("s LIKE '%promo%'")
	if _, ok := e.(*ast.Like); !ok {
		t.Errorf("like = %T", e)
	}
	e, _ = parseExpr("s NOT LIKE 'x%'")
	if !e.(*ast.Like).Not {
		t.Error("not like")
	}
	e, _ = parseExpr("x IN (1, 2, 3)")
	if il, ok := e.(*ast.InList); !ok || len(il.Items) != 3 {
		t.Errorf("in list = %v", e)
	}
	e, _ = parseExpr("x IS NOT NULL")
	if !e.(*ast.IsNull).Not {
		t.Error("is not null")
	}
}

func TestSubqueries(t *testing.T) {
	e, err := parseExpr("x IN (SELECT y FROM t)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*ast.InSubquery); !ok {
		t.Errorf("in subquery = %T", e)
	}
	e, _ = parseExpr("NOT EXISTS (SELECT 1 FROM t)")
	if ex, ok := e.(*ast.Exists); !ok || !ex.Not {
		t.Errorf("not exists = %v", e)
	}
	e, _ = parseExpr("price = (SELECT min(p) FROM t)")
	b := e.(*ast.BinaryExpr)
	if _, ok := b.Right.(*ast.ScalarSubquery); !ok {
		t.Errorf("scalar subquery = %T", b.Right)
	}
	e, _ = parseExpr("x NOT IN (SELECT y FROM t)")
	if !e.(*ast.InSubquery).Not {
		t.Error("not in subquery")
	}
}

func TestNotNormalization(t *testing.T) {
	e, _ := parseExpr("NOT x IN (1,2)")
	if il, ok := e.(*ast.InList); !ok || !il.Not {
		t.Errorf("NOT IN normalization = %v", e)
	}
	e, _ = parseExpr("NOT NOT a = 1")
	if _, ok := e.(*ast.BinaryExpr); !ok {
		// NOT NOT x stays as nested unary; just ensure it parses.
		if _, ok := e.(*ast.UnaryExpr); !ok {
			t.Errorf("double not = %T", e)
		}
	}
}

func TestAggregates(t *testing.T) {
	e, _ := parseExpr("count(*)")
	fc := e.(*ast.FuncCall)
	if !fc.Star || fc.Name != "COUNT" || !fc.IsAggregate() {
		t.Errorf("count(*) = %+v", fc)
	}
	e, _ = parseExpr("count(DISTINCT ps_suppkey)")
	fc = e.(*ast.FuncCall)
	if !fc.Distinct || len(fc.Args) != 1 {
		t.Errorf("count distinct = %+v", fc)
	}
	e, _ = parseExpr("sum(l_extendedprice * (1 - l_discount))")
	if !e.(*ast.FuncCall).IsAggregate() {
		t.Error("sum is aggregate")
	}
}

func TestCaseExpr(t *testing.T) {
	e, err := parseExpr("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END")
	if err != nil {
		t.Fatal(err)
	}
	ce := e.(*ast.CaseExpr)
	if len(ce.Whens) != 2 || ce.Else == nil {
		t.Errorf("case = %+v", ce)
	}
	if _, err := parseExpr("CASE END"); err == nil {
		t.Error("empty case accepted")
	}
}

func TestExtractAndSubstring(t *testing.T) {
	e, err := parseExpr("extract(year from o_orderdate)")
	if err != nil {
		t.Fatal(err)
	}
	if ex := e.(*ast.Extract); ex.Field != "YEAR" {
		t.Errorf("extract = %+v", ex)
	}
	e, err = parseExpr("substring(c_phone from 1 for 2)")
	if err != nil {
		t.Fatal(err)
	}
	if sub := e.(*ast.Substring); sub.For == nil {
		t.Errorf("substring = %+v", sub)
	}
}

func TestNegativeNumbersFolded(t *testing.T) {
	e, _ := parseExpr("-5")
	lit := e.(*ast.Literal)
	if lit.Value.AsInt() != -5 {
		t.Errorf("folded = %v", lit.Value)
	}
	e, _ = parseExpr("-2.5")
	if e.(*ast.Literal).Value.AsFloat() != -2.5 {
		t.Error("float fold")
	}
}

func TestCreateTable(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE nation (n_nationkey INTEGER PRIMARY KEY, n_name CHAR(25), n_regionkey INTEGER, n_comment VARCHAR(152), n_active BOOLEAN, n_since DATE, n_score DECIMAL(15,2))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*ast.CreateTable)
	if ct.Name != "nation" || len(ct.Columns) != 7 {
		t.Fatalf("create = %+v", ct)
	}
	wantKinds := []value.Kind{value.KindInt, value.KindString, value.KindInt, value.KindString, value.KindBool, value.KindDate, value.KindFloat}
	for i, w := range wantKinds {
		if ct.Columns[i].Kind != w {
			t.Errorf("col %d kind = %v, want %v", i, ct.Columns[i].Kind, w)
		}
	}
}

func TestInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*ast.Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("insert = %+v", ins)
	}
	stmt, err = Parse("INSERT INTO t VALUES (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.(*ast.Insert).Columns) != 0 {
		t.Error("column-less insert")
	}
}

func TestUpdateDeleteDrop(t *testing.T) {
	stmt, err := Parse("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(*ast.Update)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Errorf("update = %+v", upd)
	}
	stmt, _ = Parse("DELETE FROM t WHERE a = 1")
	if stmt.(*ast.Delete).Where == nil {
		t.Error("delete where")
	}
	stmt, _ = Parse("DROP TABLE IF EXISTS t")
	if d := stmt.(*ast.DropTable); !d.IfExists || d.Name != "t" {
		t.Errorf("drop = %+v", d)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT FROM t", "SELECT a FROM", "SELECT a WHERE",
		"SELECT a FROM t WHERE", "SELECT a FROM t GROUP", "FROBNICATE",
		"SELECT a FROM t LIMIT x", "SELECT a FROM t extra garbage",
		"INSERT INTO t", "CREATE TABLE t", "UPDATE t", "SELECT a FROM t ORDER",
		"SELECT (SELECT a FROM t", "SELECT a b c FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("accepted bad SQL %q", sql)
		}
	}
}

func TestTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Errorf("trailing semicolon rejected: %v", err)
	}
}

func TestTPCHQueriesParse(t *testing.T) {
	// Representative TPC-H query shapes (full set lives in internal/tpch).
	queries := []string{
		// q1 shape
		`select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
			sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
			avg(l_quantity) as avg_qty, count(*) as count_order
		 from lineitem
		 where l_shipdate <= date '1998-12-01' - interval '90' day
		 group by l_returnflag, l_linestatus
		 order by l_returnflag, l_linestatus`,
		// q4 shape (EXISTS)
		`select o_orderpriority, count(*) as order_count from orders
		 where o_orderdate >= date '1993-07-01'
		   and exists (select * from lineitem where l_orderkey = o_orderkey and l_commitdate < l_receiptdate)
		 group by o_orderpriority order by o_orderpriority`,
		// q13 shape (left outer join + derived table)
		`select c_count, count(*) as custdist from (
			select c_custkey, count(o_orderkey) as c_count
			from customer left outer join orders on c_custkey = o_custkey and o_comment not like '%special%requests%'
			group by c_custkey) as c_orders
		 group by c_count order by custdist desc, c_count desc`,
		// q19 shape (big OR of ANDs)
		`select sum(l_extendedprice * (1 - l_discount)) as revenue from lineitem, part
		 where (p_partkey = l_partkey and p_brand = 'Brand#12' and p_container in ('SM CASE', 'SM BOX')
			and l_quantity >= 1 and l_quantity <= 11 and p_size between 1 and 5
			and l_shipmode in ('AIR', 'AIR REG') and l_shipinstruct = 'DELIVER IN PERSON')
		    or (p_partkey = l_partkey and p_brand = 'Brand#23' and l_quantity >= 10)`,
	}
	for i, q := range queries {
		if _, err := ParseSelect(q); err != nil {
			t.Errorf("query %d: %v\n%s", i, err, strings.TrimSpace(q))
		}
	}
}

// TestNestingBound: for each construct that nests, the parser accepts at
// least a hundred levels, refuses the first level past its bounds with
// ErrTooDeep, and prints the deepest statement it accepts as SQL that parses
// back to an equal tree. 4 Mi parentheses fail the same way.
func TestNestingBound(t *testing.T) {
	rep := strings.Repeat
	for _, c := range []struct {
		name string
		sql  func(k int) string
	}{
		{"parentheses", func(k int) string { return "SELECT " + rep("(", k) + "a" + rep(")", k) + " FROM t" }},
		{"NOT", func(k int) string { return "SELECT a FROM t WHERE " + rep("NOT ", k) + "a = 1" }},
		{"unary minus", func(k int) string { return "SELECT " + rep("- ", k) + "a FROM t" }},
		{"CASE", func(k int) string {
			return "SELECT " + rep("CASE WHEN a = 1 THEN ", k) + "a" + rep(" END", k) + " FROM t"
		}},
		{"scalar subquery", func(k int) string { return "SELECT " + rep("(SELECT ", k) + "a" + rep(" FROM t)", k) + " FROM t" }},
		{"IN subquery", func(k int) string {
			return "SELECT a FROM t WHERE " + rep("a IN (SELECT a FROM t WHERE ", k) + "a = 1" + rep(")", k)
		}},
		{"derived table", func(k int) string { return "SELECT a FROM " + rep("(SELECT a FROM ", k) + "t" + rep(") d", k) }},
		{"OR chain", func(k int) string { return "SELECT a FROM t WHERE a = 0" + rep(" OR a = 1", k) }},
		{"arithmetic chain", func(k int) string { return "SELECT a" + rep(" + 1", k) + " FROM t" }},
	} {
		accepted := func(k int) bool {
			_, err := Parse(c.sql(k))
			if err != nil && !errors.Is(err, ErrTooDeep) {
				t.Fatalf("%s at %d levels: %v", c.name, k, err)
			}
			return err == nil
		}
		lo, hi := 0, 4*maxDepth // accepted(lo), !accepted(hi)
		if !accepted(lo) || accepted(hi) {
			t.Fatalf("%s: not refused between 0 and %d levels", c.name, hi)
		}
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; accepted(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo < maxHeight/4 {
			t.Errorf("%s: refused at %d levels", c.name, hi)
		}
		sel := mustSelect(t, c.sql(lo))
		if back, err := ParseSelect(sel.String()); err != nil || !reflect.DeepEqual(back, sel) {
			t.Errorf("%s: the deepest accepted statement (%d levels) does not print back: %v", c.name, lo, err)
		}
	}
	deep := "SELECT " + strings.Repeat("(", 4<<20) + "1" + strings.Repeat(")", 4<<20) + " FROM t"
	if _, err := Parse(deep); !errors.Is(err, ErrTooDeep) {
		t.Errorf("4 Mi parentheses: %v, want ErrTooDeep", err)
	}
}
