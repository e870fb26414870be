package exec_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ironsafe/internal/partition"
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tpch"
)

// The join and group-by layer benchmarks (ROADMAP A(1)) run TPC-H's join and
// aggregation shapes at SF 0.01 over in-memory relations, so that nothing but
// the operators is timed: no storage, no page crypto. Every relation holds
// exactly the columns its statement names, already filtered, which is what a
// scan hands the join — rows shared by reference, not copied. The file uses
// only the package's exported API, so the same file measures any commit.

type benchCatalog map[string]exec.Relation

func (c benchCatalog) Relation(name string) (exec.Relation, error) {
	r, ok := c[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return r, nil
}

var tpchOnce = sync.OnceValue(func() benchCatalog {
	d := tpch.Generate(0.01)
	cat := benchCatalog{}
	for _, ddl := range tpch.DDL {
		st, err := parser.Parse(ddl)
		if err != nil {
			panic(err)
		}
		ct := st.(*ast.CreateTable)
		sch := schema.New()
		for _, col := range ct.Columns {
			sch.Columns = append(sch.Columns, schema.Col(col.Name, col.Kind))
		}
		name := strings.ToLower(ct.Name)
		cat[name] = &exec.MemRelation{Sch: sch, Rows: d.Rows(name)}
	}
	return cat
})

// shaped runs sql over the TPC-H tables and holds the result as a relation.
func shaped(tb testing.TB, sql string) *exec.MemRelation {
	tb.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := exec.RunBatched(sel, tpchOnce(), nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return &exec.MemRelation{Sch: res.Sch, Rows: res.Rows}
}

// benchStatement times sql over cat. A join statement selects count(*) first
// and wants that many joined rows; a grouping statement wants that many groups.
func benchStatement(b *testing.B, cat benchCatalog, sql string, want int) {
	b.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.RunBatched(sel, cat, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		got := len(res.Rows)
		if got == 1 {
			got = int(res.Rows[0][0].AsInt())
		}
		if got != want {
			b.Fatalf("%d rows, want %d", got, want)
		}
	}
}

// BenchmarkHashJoin times the three join shapes that carry hos-join: q5's
// orders-of-1994 x lineitem (2 409 x 59 882 -> 9 523, the small side on the
// left), q8's eleven parts x lineitem (11 x 59 882 -> 326), and q7's chain of
// five joins whose 19 307 rows a nation-pair filter then cuts to 43.
func BenchmarkHashJoin(b *testing.B) {
	b.Run("q5-2409x59882", func(b *testing.B) {
		cat := benchCatalog{"lineitem": shaped(b, "SELECT l_orderkey, l_extendedprice, l_discount FROM lineitem"),
			"orders": shaped(b, "SELECT o_orderkey, o_custkey FROM orders WHERE o_orderdate >= date '1994-01-01' AND o_orderdate < date '1995-01-01'")}
		benchStatement(b, cat, `SELECT count(*), sum(o_custkey), sum(l_extendedprice * (1 - l_discount))
			FROM orders, lineitem WHERE o_orderkey = l_orderkey`, 9523)
	})
	b.Run("q8-11x59882", func(b *testing.B) {
		cat := benchCatalog{"lineitem": shaped(b, "SELECT l_partkey, l_extendedprice, l_discount FROM lineitem"),
			"part": shaped(b, "SELECT p_partkey FROM part WHERE p_type = 'ECONOMY ANODIZED STEEL'")}
		benchStatement(b, cat, `SELECT count(*), sum(l_extendedprice * (1 - l_discount))
			FROM part, lineitem WHERE p_partkey = l_partkey`, 326)
	})
	b.Run("q7-five-joins", func(b *testing.B) {
		cat := benchCatalog{
			"supplier": shaped(b, "SELECT s_suppkey, s_nationkey FROM supplier"),
			"lineitem": shaped(b, "SELECT l_orderkey, l_suppkey, l_extendedprice, l_discount FROM lineitem WHERE l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31'"),
			"orders":   shaped(b, "SELECT o_orderkey, o_custkey FROM orders"),
			"customer": shaped(b, "SELECT c_custkey, c_nationkey FROM customer"),
			"nation":   shaped(b, "SELECT n_nationkey, n_name FROM nation"),
		}
		benchStatement(b, cat, `SELECT count(*), sum(l_extendedprice * (1 - l_discount))
			FROM supplier, lineitem, orders, customer, nation n1, nation n2
			WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
			  AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
			  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY') OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))`, 43)
	})
}

// BenchmarkGroupBy times grouped aggregation at its two extremes: q18's
// lineitem by order key (59 882 rows -> 15 000 groups, a new group every four
// rows) and q1's two flags (59 882 rows -> 4 groups, every row an existing
// group).
func BenchmarkGroupBy(b *testing.B) {
	b.Run("q18-15000-groups", func(b *testing.B) {
		cat := benchCatalog{"lineitem": shaped(b, "SELECT l_orderkey, l_quantity FROM lineitem")}
		benchStatement(b, cat, "SELECT l_orderkey, sum(l_quantity) FROM lineitem GROUP BY l_orderkey", 15000)
	})
	b.Run("q1-4-groups", func(b *testing.B) {
		cat := benchCatalog{"lineitem": shaped(b, "SELECT l_returnflag, l_linestatus, l_quantity, l_extendedprice FROM lineitem")}
		benchStatement(b, cat, `SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*)
			FROM lineitem GROUP BY l_returnflag, l_linestatus`, 4)
	})
}

// BenchmarkScanSemiReduce times a lineitem scan filtered by the join keys of
// the FROM entry before it. Lineitem is held as a retained reply, whose rows —
// like a stored table's — are boxed only if the scan keeps them, and is joined
// to the orders of 1 % and of 16 % of the customers (scattered over the table,
// as q3's, q5's and q10's are) and to all orders but the first. The last
// source's reducer rejects next to nothing: it is built once the scan has
// passed more rows than there are orders and then probes every other window,
// every fourth, … — that case prices a reducer that does not pay.
func BenchmarkScanSemiReduce(b *testing.B) {
	lineitem := retained(b, "SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_shipdate FROM lineitem")
	cat := benchCatalog{"lineitem": lineitem, "orders": shaped(b, "SELECT o_orderkey, o_custkey FROM orders")}
	for _, c := range []struct{ name, pred string }{
		{"1pct", "o_custkey <= 15"}, {"16pct", "o_custkey <= 240"}, {"100pct", "o_orderkey > 1"},
	} {
		b.Run(c.name, func(b *testing.B) {
			from := " FROM orders, lineitem WHERE o_orderkey = l_orderkey AND " + c.pred
			want := shaped(b, "SELECT count(*)"+from).Rows[0][0].AsInt()
			benchStatement(b, cat, "SELECT count(*), sum(l_extendedprice * (1 - l_discount))"+from, int(want))
		})
	}
}

// retained holds the rows of sql as a retained reply: like a stored table's,
// its rows are boxed only if the scan keeps them.
func retained(b *testing.B, sql string) exec.Relation {
	rel := shaped(b, sql)
	blob, err := exec.EncodeResult(&exec.Result{Sch: rel.Sch, Rows: rel.Rows})
	if err != nil {
		b.Fatal(err)
	}
	res, err := exec.RetainResult(blob)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSubqueryReduce times the host phases a subquery's key set reduces,
// over the tables as scs ships them: q4's EXISTS (607 orders of one quarter
// probe a cache of 37 895 late lineitems, of which the orders' keys leave
// 1 558 to box and group), q18's IN (a set of one order key cuts the orders
// scan to 1 row and, through it, lineitem's to 7), and the case a reducer must
// sit out — every lineitem asks for its order among those of 16 % of the
// customers, an outer twenty-five times the inner.
func BenchmarkSubqueryReduce(b *testing.B) {
	b.Run("q4-exists", func(b *testing.B) {
		cat := benchCatalog{"orders": shaped(b, "SELECT o_orderkey, o_orderdate, o_orderpriority FROM orders"),
			"lineitem": retained(b, "SELECT l_orderkey, l_commitdate, l_receiptdate FROM lineitem WHERE l_commitdate < l_receiptdate")}
		benchStatement(b, cat, tpch.Queries[4], 5)
	})
	b.Run("q18-in", func(b *testing.B) {
		cat := benchCatalog{"customer": shaped(b, "SELECT c_custkey, c_name FROM customer"),
			"orders":   retained(b, "SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders"),
			"lineitem": retained(b, "SELECT l_orderkey, l_quantity FROM lineitem")}
		benchStatement(b, cat, `SELECT count(*), sum(l_quantity) FROM customer, orders, lineitem
			WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 300)
			  AND c_custkey = o_custkey AND o_orderkey = l_orderkey`, 7)
	})
	b.Run("outer-exceeds-inner", func(b *testing.B) {
		cat := benchCatalog{"lineitem": shaped(b, "SELECT l_orderkey, l_quantity FROM lineitem"),
			"orders": retained(b, "SELECT o_orderkey, o_custkey FROM orders")}
		want := shaped(b, "SELECT count(*) FROM orders, lineitem WHERE o_orderkey = l_orderkey AND o_custkey <= 240").Rows[0][0].AsInt()
		benchStatement(b, cat, `SELECT count(*), sum(l_quantity) FROM lineitem
			WHERE EXISTS (SELECT * FROM orders WHERE o_orderkey = l_orderkey AND o_custkey <= 240)`, int(want))
	})
}

// hostPhase is the host's half of TPC-H query q under scs at SF 0.01: the
// statement, and the reply bytes of each offload the partitioner splits off it,
// as the storage side would send them. run executes the statement over the
// replies the way the host does — each retained as it arrives, decoded by the
// statement's scans — and returns the result.
type hostPhase struct {
	sel     *ast.Select
	replies map[string][]byte
	shipped int // rows in all replies
}

func newHostPhase(tb testing.TB, q int) *hostPhase {
	tb.Helper()
	sel, err := parser.ParseSelect(tpch.Queries[q])
	if err != nil {
		tb.Fatal(err)
	}
	schemas := partition.SchemaMap{}
	for name, rel := range tpchOnce() {
		schemas[name] = rel.Schema()
	}
	split, err := partition.SplitQuery(sel, schemas)
	if err != nil {
		tb.Fatal(err)
	}
	hp := &hostPhase{sel: split.Host, replies: map[string][]byte{}}
	for _, ship := range split.Ships {
		rel := shaped(tb, ship.SQL)
		if hp.replies[ship.Table], err = exec.EncodeResult(&exec.Result{Sch: rel.Sch, Rows: rel.Rows}); err != nil {
			tb.Fatal(err)
		}
		hp.shipped += len(rel.Rows)
	}
	return hp
}

func (hp *hostPhase) run(tb testing.TB) *exec.Result {
	cat := benchCatalog{}
	for table, blob := range hp.replies {
		res, err := exec.RetainResult(blob)
		if err != nil {
			tb.Fatal(err)
		}
		cat[table] = res
	}
	res, err := exec.RunBatched(hp.sel, cat, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, reply := range cat {
		reply.(*exec.Result).Release() // as the host does once its phase has ended
	}
	return res
}

// BenchmarkHostPhase times the host phases that carry scs-subquery, from the
// replies' bytes to the result: q13 (a left outer join of 1 500 customers with
// 15 000 orders, grouped twice), q18 (lineitem grouped into 15 000 orders for an
// IN set that reduces a three-way join) and q21 (four scans of lineitem's reply
// — one joined, two as EXISTS caches). allocs/op over the rows shipped is what
// TestHostPhaseAllocBudget bounds.
func BenchmarkHostPhase(b *testing.B) {
	for _, q := range []int{13, 18, 21} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			hp := newHostPhase(b, q)
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				rows = len(hp.run(b).Rows)
			}
			b.ReportMetric(float64(hp.shipped), "rows-shipped")
			b.ReportMetric(float64(rows), "rows-returned")
		})
	}
}
