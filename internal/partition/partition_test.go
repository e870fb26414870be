package partition

import (
	"fmt"
	"strings"
	"testing"

	"ironsafe/internal/engine"
	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tpch"
	"ironsafe/internal/value"
)

func tpchSchemas(t *testing.T) SchemaMap {
	t.Helper()
	var m simtime.Meter
	db, err := engine.Open(pager.NewPager(pager.NewMemDevice(), &m, 64), &m)
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range tpch.DDL {
		if _, err := db.Execute(ddl); err != nil {
			t.Fatal(err)
		}
	}
	sm := SchemaMap{}
	for _, name := range db.TableNames() {
		tab, _ := db.Table(name)
		sm[strings.ToLower(name)] = tab.Sch
	}
	return sm
}

func split(t *testing.T, sql string) *Split {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SplitQuery(sel, tpchSchemas(t))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shipFor(s *Split, table string) *TableShip {
	for i := range s.Ships {
		if s.Ships[i].Table == table {
			return &s.Ships[i]
		}
	}
	return nil
}

func TestSingleTablePushdown(t *testing.T) {
	s := split(t, `SELECT sum(l_extendedprice) FROM lineitem WHERE l_shipdate < date '1995-01-01' AND l_quantity < 24`)
	if len(s.Ships) != 1 {
		t.Fatalf("ships = %d", len(s.Ships))
	}
	ship := s.Ships[0]
	if ship.Table != "lineitem" {
		t.Errorf("table = %q", ship.Table)
	}
	if ship.Predicate == nil {
		t.Fatal("no pushdown predicate")
	}
	sqlText := ship.SQL
	if !strings.Contains(sqlText, "l_shipdate") || !strings.Contains(sqlText, "l_quantity") {
		t.Errorf("ship SQL = %q", sqlText)
	}
	// Projection pruned to the referenced columns.
	if len(ship.Columns) != 3 {
		t.Errorf("columns = %v", ship.Columns)
	}
}

func TestJoinPredicatesNotPushed(t *testing.T) {
	s := split(t, `SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-01-01'`)
	o := shipFor(s, "orders")
	l := shipFor(s, "lineitem")
	if o == nil || l == nil {
		t.Fatalf("ships = %+v", s.Ships)
	}
	if o.Predicate == nil || !strings.Contains(o.SQL, "o_orderdate") {
		t.Errorf("orders pushdown missing: %q", o.SQL)
	}
	if strings.Contains(o.SQL, "l_orderkey") {
		t.Errorf("join predicate leaked into orders ship: %q", o.SQL)
	}
	if l.Predicate != nil {
		t.Errorf("lineitem should ship whole: %q", l.SQL)
	}
}

func TestQualifiedRefsStripped(t *testing.T) {
	s := split(t, `SELECT o.o_orderkey FROM orders o WHERE o.o_totalprice > 100`)
	ship := s.Ships[0]
	if strings.Contains(ship.SQL, "o.o_totalprice") {
		t.Errorf("qualifier not stripped: %q", ship.SQL)
	}
	if !strings.Contains(ship.SQL, "o_totalprice > 100") {
		t.Errorf("predicate missing: %q", ship.SQL)
	}
}

func TestMultiRefTableORsPredicates(t *testing.T) {
	// q21 shape: lineitem appears as l1 (filtered) and in subqueries
	// (unfiltered) -> whole table must ship.
	s := split(t, tpch.Queries[21])
	l := shipFor(s, "lineitem")
	if l == nil {
		t.Fatal("no lineitem ship")
	}
	if l.Predicate != nil {
		t.Errorf("lineitem must ship whole (subquery refs unfiltered): %q", l.SQL)
	}
	o := shipFor(s, "orders")
	if o == nil || o.Predicate == nil || !strings.Contains(o.SQL, "o_orderstatus") {
		t.Errorf("orders pushdown missing: %+v", o)
	}
}

func TestSubqueryTablesCollected(t *testing.T) {
	// q4: lineitem appears only inside EXISTS.
	s := split(t, tpch.Queries[4])
	if shipFor(s, "lineitem") == nil {
		t.Error("subquery table not shipped")
	}
	o := shipFor(s, "orders")
	if o.Predicate == nil || !strings.Contains(o.SQL, "o_orderdate") {
		t.Errorf("orders date pushdown missing: %q", o.SQL)
	}
}

func TestDerivedTableTablesCollected(t *testing.T) {
	// q7: all base tables sit inside a derived table.
	s := split(t, tpch.Queries[7])
	for _, tb := range []string{"supplier", "lineitem", "orders", "customer", "nation"} {
		if shipFor(s, tb) == nil {
			t.Errorf("table %s not shipped", tb)
		}
	}
	l := shipFor(s, "lineitem")
	if l.Predicate == nil || !strings.Contains(l.SQL, "l_shipdate") {
		t.Errorf("lineitem between pushdown missing: %q", l.SQL)
	}
}

func TestQ19ORDistribution(t *testing.T) {
	s := split(t, tpch.Queries[19])
	p := shipFor(s, "part")
	l := shipFor(s, "lineitem")
	if p == nil || p.Predicate == nil || !strings.Contains(p.SQL, "Brand#12") || !strings.Contains(p.SQL, "Brand#34") {
		t.Errorf("part OR pushdown missing: %+v", p)
	}
	if l == nil || l.Predicate == nil || !strings.Contains(l.SQL, "l_quantity") {
		t.Errorf("lineitem OR pushdown missing: %+v", l)
	}
}

func TestStarShipsAllColumns(t *testing.T) {
	s := split(t, "SELECT * FROM nation WHERE n_nationkey < 5")
	ship := s.Ships[0]
	if len(ship.Columns) != 0 {
		t.Errorf("star should ship all columns, got %v", ship.Columns)
	}
	if !strings.HasPrefix(ship.SQL, "SELECT * FROM nation") {
		t.Errorf("sql = %q", ship.SQL)
	}
}

func TestUnknownTable(t *testing.T) {
	sel, _ := parser.ParseSelect("SELECT x FROM mystery")
	if _, err := SplitQuery(sel, tpchSchemas(t)); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestHint(t *testing.T) {
	src := tpchSchemas(t)
	s := split(t, tpch.Queries[6])
	h := s.Hint(src)
	if h.TablesWithPredicate != 1 || h.TablesTotal != 1 || !h.ColumnsPruned {
		t.Errorf("q6 hint = %+v", h)
	}
	s = split(t, "SELECT * FROM nation")
	h = s.Hint(src)
	if h.TablesWithPredicate != 0 || h.ColumnsPruned {
		t.Errorf("full scan hint = %+v", h)
	}
}

// TestSplitEquivalence is the partitioner's key correctness property: for
// every evaluated TPC-H query, running the split (offload queries against
// the full database, host query against the shipped subsets) must produce
// exactly the same result as direct execution.
func TestSplitEquivalence(t *testing.T) {
	var m simtime.Meter
	db, err := engine.Open(pager.NewPager(pager.NewMemDevice(), &m, 4096), &m)
	if err != nil {
		t.Fatal(err)
	}
	if err := tpch.Load(db, tpch.Generate(0.001)); err != nil {
		t.Fatal(err)
	}
	schemas := SchemaMap{}
	for _, name := range db.TableNames() {
		tab, _ := db.Table(name)
		schemas[strings.ToLower(name)] = tab.Sch
	}

	for qn := 1; qn <= 22; qn++ {
		sel, err := parser.ParseSelect(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		direct, err := exec.Run(sel, db, nil)
		if err != nil {
			t.Fatalf("q%d direct: %v", qn, err)
		}

		s, err := SplitQuery(sel, schemas)
		if err != nil {
			t.Fatalf("q%d split: %v", qn, err)
		}
		// "Storage side": run each ship against the full database.
		shipped := shippedCatalog{}
		for _, ship := range s.Ships {
			shipSel, err := parser.ParseSelect(ship.SQL)
			if err != nil {
				t.Fatalf("q%d ship %q: %v", qn, ship.SQL, err)
			}
			res, err := exec.Run(shipSel, db, nil)
			if err != nil {
				t.Fatalf("q%d ship %s: %v", qn, ship.Table, err)
			}
			shipped[ship.Table] = &exec.MemRelation{Sch: res.Sch, Rows: res.Rows}
		}
		// "Host side": run the original query over the shipped tables.
		viaSplit, err := exec.Run(s.Host, shipped, nil)
		if err != nil {
			t.Fatalf("q%d host: %v", qn, err)
		}
		if err := sameResult(direct, viaSplit); err != nil {
			t.Errorf("q%d split result differs: %v", qn, err)
		}
	}
}

type shippedCatalog map[string]*exec.MemRelation

func (c shippedCatalog) Relation(name string) (exec.Relation, error) {
	r, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, &missingTable{name}
	}
	return r, nil
}

type missingTable struct{ name string }

func (e *missingTable) Error() string { return "no shipped table " + e.name }

func sameResult(a, b *exec.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return &diffErr{msgf("row counts %d vs %d", len(a.Rows), len(b.Rows))}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return &diffErr{msgf("row %d width", i)}
		}
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.IsNull() != bv.IsNull() {
				return &diffErr{msgf("row %d col %d null mismatch", i, j)}
			}
			if av.IsNull() {
				continue
			}
			if av.Kind() == value.KindFloat || bv.Kind() == value.KindFloat {
				d := av.AsFloat() - bv.AsFloat()
				if d < -1e-6 || d > 1e-6 {
					return &diffErr{msgf("row %d col %d: %v vs %v", i, j, av, bv)}
				}
				continue
			}
			if !value.Equal(av, bv) {
				return &diffErr{msgf("row %d col %d: %v vs %v", i, j, av, bv)}
			}
		}
	}
	return nil
}

type diffErr struct{ s string }

func (e *diffErr) Error() string { return e.s }

func msgf(f string, args ...any) string {
	return fmt.Sprintf(f, args...)
}

func TestBeneficialHeuristic(t *testing.T) {
	src := tpchSchemas(t)
	if !split(t, tpch.Queries[6]).Beneficial(src) {
		t.Error("q6 (selective filter) should be beneficial")
	}
	if !split(t, tpch.Queries[3]).Beneficial(src) {
		t.Error("q3 should be beneficial")
	}
	if split(t, "SELECT * FROM nation").Beneficial(src) {
		t.Error("whole-table star scan should not be beneficial")
	}
	if !split(t, "SELECT n_name FROM nation").Beneficial(src) {
		t.Error("projection pruning alone should count as beneficial")
	}
}

// TestExistsBodiesShipWhatTheyRead: existence needs no output column, so a *
// in an EXISTS / NOT EXISTS body asks nothing of its tables — they ship the
// columns the body's conditions read, correlated columns go to the outer
// table they belong to — while every other * keeps its meaning.
func TestExistsBodiesShipWhatTheyRead(t *testing.T) {
	src := tpchSchemas(t)
	cases := []struct {
		name string
		sql  string
		want map[string]string // table -> offload SQL
	}{
		{"q4", tpch.Queries[4], map[string]string{
			"lineitem": "SELECT l_commitdate, l_orderkey, l_receiptdate FROM lineitem WHERE (l_commitdate < l_receiptdate)",
		}},
		{"q21: l1 joined, l2 under EXISTS, l3 under NOT EXISTS", tpch.Queries[21], map[string]string{
			"lineitem": "SELECT l_commitdate, l_orderkey, l_receiptdate, l_suppkey FROM lineitem",
		}},
		{"nested EXISTS, inner body correlated two levels up",
			`SELECT c_name FROM customer WHERE EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey
				AND NOT EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_suppkey = c_nationkey))`,
			map[string]string{
				"customer": "SELECT c_custkey, c_name, c_nationkey FROM customer",
				"orders":   "SELECT o_custkey, o_orderkey FROM orders",
				"lineitem": "SELECT l_orderkey, l_suppkey FROM lineitem",
			}},
		{"body joining two tables",
			`SELECT s_name FROM supplier WHERE EXISTS (SELECT * FROM partsupp, part
				WHERE ps_suppkey = s_suppkey AND ps_partkey = p_partkey AND p_size > 40)`,
			map[string]string{
				"supplier": "SELECT s_name, s_suppkey FROM supplier",
				"partsupp": "SELECT ps_partkey, ps_suppkey FROM partsupp",
				"part":     "SELECT p_partkey, p_size FROM part WHERE (p_size > 40)",
			}},
		{"EXISTS under a derived table",
			`SELECT x.o_orderkey FROM (SELECT o_orderkey FROM orders WHERE EXISTS
				(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 49)) x`,
			map[string]string{
				"orders":   "SELECT o_orderkey FROM orders",
				"lineitem": "SELECT l_orderkey, l_quantity FROM lineitem WHERE (l_quantity > 49)",
			}},
		{"a non-star item in the body is still evaluated, so still shipped",
			`SELECT n_name FROM nation WHERE EXISTS (SELECT *, r_comment FROM region WHERE r_regionkey = n_regionkey)`,
			map[string]string{"region": "SELECT r_comment, r_regionkey FROM region"}},
		{"a body that reads nothing of its table ships it whole",
			`SELECT n_name FROM nation WHERE EXISTS (SELECT * FROM region)`,
			map[string]string{"region": "SELECT * FROM region"}},
		{"a derived table's * inside an EXISTS body is a real one",
			`SELECT n_name FROM nation WHERE EXISTS (SELECT * FROM (SELECT * FROM region) r WHERE r.r_regionkey = n_regionkey)`,
			map[string]string{"region": "SELECT * FROM region"}},
		{"top-level * ships every column",
			`SELECT * FROM nation WHERE EXISTS (SELECT * FROM region WHERE r_regionkey = n_regionkey)`,
			map[string]string{
				"nation": "SELECT * FROM nation",
				"region": "SELECT r_regionkey FROM region",
			}},
		{"IN body keeps its *",
			`SELECT n_name FROM nation WHERE n_regionkey IN (SELECT * FROM region)`,
			map[string]string{"region": "SELECT * FROM region"}},
		{"scalar body keeps its *",
			`SELECT n_name FROM nation WHERE n_regionkey = (SELECT * FROM region WHERE r_name = 'ASIA')`,
			map[string]string{"region": "SELECT * FROM region WHERE (r_name = 'ASIA')"}},
	}
	for _, tc := range cases {
		s := split(t, tc.sql)
		for table, want := range tc.want {
			ship := shipFor(s, table)
			if ship == nil {
				t.Errorf("%s: %s not shipped", tc.name, table)
				continue
			}
			if ship.SQL != want {
				t.Errorf("%s: %s ships\n  %s\nwant\n  %s", tc.name, table, ship.SQL, want)
			}
		}
	}
	// The two fragments that used to cross the link sixteen columns wide now
	// count as pruned for the offload heuristic.
	for _, qn := range []int{4, 21} {
		s := split(t, tpch.Queries[qn])
		if l := shipFor(s, "lineitem"); len(l.Columns) == 0 || len(l.Columns) > 4 {
			t.Errorf("q%d: lineitem ships columns %v", qn, l.Columns)
		}
		if h := s.Hint(src); !h.ColumnsPruned || !s.Beneficial(src) {
			t.Errorf("q%d: hint %+v", qn, h)
		}
	}
}

// TestNoExistsBodySetsAllCols pins the rule at its source: collecting an
// EXISTS body never marks a table as shipping every column, whatever its
// items are, while the same SELECT collected as any other body does.
func TestNoExistsBodySetsAllCols(t *testing.T) {
	src := tpchSchemas(t)
	for _, body := range []string{
		"SELECT * FROM lineitem WHERE l_quantity > 1",
		"SELECT *, l_tax FROM lineitem, orders WHERE l_orderkey = o_orderkey",
		"SELECT * FROM lineitem l1 WHERE EXISTS (SELECT * FROM lineitem l2 WHERE l2.l_orderkey = l1.l_orderkey)",
	} {
		sel, err := parser.ParseSelect(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, exists := range []bool{true, false} {
			tables := map[string]*tableInfo{}
			if err := collect(sel, src, tables, nil, exists); err != nil {
				t.Fatal(err)
			}
			for name, ti := range tables {
				if ti.allCols == exists {
					t.Errorf("%s collected with existsBody=%v: %s allCols=%v", body, exists, name, ti.allCols)
				}
			}
		}
	}
}

// TestLeftJoinedEntryTakesNoWherePushdown: a WHERE conjunct over the
// NULL-supplying side of a LEFT OUTER JOIN is not a filter on that table — it
// runs after the NULL extension, and `o_orderkey IS NULL` accepts exactly the
// rows the extension makes. Shipping orders filtered by it ships no orders, so
// every customer comes out NULL-extended. Such an entry is shipped whole, by
// its columns; the left side still takes its conjuncts, and so does an inner
// join's right side.
func TestLeftJoinedEntryTakesNoWherePushdown(t *testing.T) {
	for _, where := range []string{
		"o_orderkey IS NULL",
		"o_orderkey IS NULL OR o_totalprice > 5",
		"o_totalprice > 5",
		"(o_totalprice > 5 AND c_acctbal > 0) OR (o_totalprice < 1 AND c_acctbal < 0)",
	} {
		s := split(t, `SELECT c_custkey, o_orderkey FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
			WHERE c_acctbal <> 0 AND (`+where+`)`)
		o := shipFor(s, "orders")
		if o == nil || o.Predicate != nil {
			t.Errorf("WHERE %s: orders shipped as %q, want no predicate", where, o.SQL)
		}
		for _, col := range []string{"o_custkey", "o_orderkey"} {
			if !strings.Contains(o.SQL, col) {
				t.Errorf("WHERE %s: orders shipped as %q, without %s", where, o.SQL, col)
			}
		}
		if c := shipFor(s, "customer"); c == nil || c.Predicate == nil || !strings.Contains(c.SQL, "c_acctbal <> 0") {
			t.Errorf("WHERE %s: customer shipped as %q, want its conjunct pushed", where, c.SQL)
		}
	}
	s := split(t, `SELECT c_custkey FROM customer JOIN orders ON c_custkey = o_custkey WHERE o_totalprice > 5`)
	if o := shipFor(s, "orders"); o == nil || o.Predicate == nil {
		t.Errorf("an inner join's right side shipped as %q, want its conjunct pushed", o.SQL)
	}
}
