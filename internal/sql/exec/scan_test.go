package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/value"
)

// lineitemish builds n rows shaped like the lineitem columns the pushed TPC-H
// predicates read. With nulls set, every fifth value of every column is NULL,
// which forces the boxed fallbacks.
func lineitemish(n int, nulls bool) *MemRelation {
	modes := []string{"MAIL", "SHIP", "AIR", "AIR REG", "TRUCK", "RAIL", "FOB"}
	instr := []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	base := value.DaysFromCivil(1993, 6, 1)
	rel := &MemRelation{Sch: schema.New(
		schema.Col("l_orderkey", value.KindInt),
		schema.Col("l_quantity", value.KindFloat),
		schema.Col("l_discount", value.KindFloat),
		schema.Col("l_shipdate", value.KindDate),
		schema.Col("l_commitdate", value.KindDate),
		schema.Col("l_receiptdate", value.KindDate),
		schema.Col("l_shipmode", value.KindString),
		schema.Col("l_shipinstruct", value.KindString),
		schema.Col("l_size", value.KindInt),
		schema.Col("l_flag", value.KindBool),
		schema.Col("l_comment", value.KindString), // never referenced below
	)}
	for i := 0; i < n; i++ {
		row := schema.Row{
			value.Int(int64(i)),
			value.Float(float64(1 + i%50)),
			value.Float(float64(i%11) / 100),
			value.Date(base + int64(i*7%900)),
			value.Date(base + int64(i*11%900)),
			value.Date(base + int64(i*13%900)),
			value.Str(modes[i%len(modes)]),
			value.Str(instr[i%len(instr)]),
			value.Int(int64(i % 50)),
			value.Bool(i%3 == 0),
			value.Str(fmt.Sprintf("comment %d", i)),
		}
		if nulls {
			for c := range row {
				if (i+c)%5 == 0 {
					row[c] = value.Null()
				}
			}
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// pushedShapes are the predicate shapes of the 26 pushed-down TPC-H
// fragments (and their close variants), over lineitemish.
var pushedShapes = []string{
	"l_shipdate > date '1995-03-15'",
	"l_shipdate >= date '1994-01-01' AND l_shipdate < date '1994-01-01' + interval '1' year",
	"l_shipdate >= date '1994-01-01' AND l_shipdate < date '1994-01-01' + interval '1' year AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
	"l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31'",
	"l_shipdate NOT BETWEEN date '1995-01-01' AND date '1996-12-31'",
	"l_commitdate < l_receiptdate",
	"l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate AND l_receiptdate >= date '1994-01-01'",
	"l_shipmode = 'MAIL'",
	"l_shipmode <> 'MAIL'",
	"l_shipmode = 'MAIL' OR l_shipmode = 'SHIP' OR l_shipmode = 'MAIL'",
	"l_shipinstruct LIKE '%PERSON'",
	"l_shipinstruct NOT LIKE 'DELIVER%'",
	"l_shipmode < l_shipinstruct",
	"l_size = 15 AND l_shipinstruct LIKE '%COD'",
	"l_size IN (49, 14, 23, 45, 19, 3, 36, 9)",
	"l_size NOT IN (1, 2, 3)",
	"l_size BETWEEN 1 AND 5",
	"l_quantity IN (1, 2.0, 3)",
	"l_quantity >= 1 AND l_quantity <= 11 AND l_shipmode IN ('AIR', 'AIR REG') AND l_shipinstruct = 'DELIVER IN PERSON' OR l_quantity >= 10 AND l_quantity <= 20 AND l_shipmode IN ('AIR', 'AIR REG')",
	"NOT (l_size < 10)",
	"NOT (l_size < 10 OR l_shipmode = 'RAIL')",
	"l_flag = true",
	"l_flag AND l_size > 20",
	"l_flag OR l_size > 40",
	"24 > l_quantity",
}

// boxedShapes go through eval somewhere — a constant or NULL operand the typed
// kernels do not fit, a node that has no kernel — and must agree all the same.
var boxedShapes = []string{
	"1 < 2 AND l_size > 47",
	"l_size IN (1, NULL, 3)",
	"l_size > 47 OR NULL",
	"l_shipmode LIKE l_shipinstruct",
	"l_size = 7.5",
	"l_size % 4 >= 2",
	"l_quantity / 2 > 10 AND l_size > 5",
	"l_shipmode || l_shipinstruct = 'MAILNONE'",
	"l_shipdate + interval '1' month > l_commitdate",
	"extract(year from l_shipdate) = 1994 OR extract(month from l_commitdate) = 7",
	"substring(l_shipmode from 1 for 1) = 'M'",
	"l_size IS NULL OR l_quantity IS NOT NULL AND l_size > 30",
	"-l_size < -40",
	"NOT (l_size % 2 = 0)",
	"CASE WHEN l_size > 25 THEN l_flag WHEN l_size > 10 THEN l_size % 3 = 0 END",
}

// kernelShapes generates, per operand kind, every shape a typed kernel serves
// — the six comparisons, BETWEEN, IN-list, LIKE, NOT, AND/OR and + - * — with
// each operand a column vector or a constant, over lineitemish's columns.
// typed reports that over NULL-free columns the shape's result must be a typed
// vector: the kernel ran, nothing in the tree went through eval.
type kernelShape struct {
	text  string
	typed bool
}

func kernelShapes(rng *rand.Rand) []kernelShape {
	kinds := []struct {
		cols, consts []string
		arith        bool // + - * has a kernel for the kind
		mixed        bool // Int constants against a Float column: compared typed, added boxed
	}{
		{cols: []string{"l_orderkey", "l_size"}, consts: []string{"7", "23", "150"}, arith: true},
		{cols: []string{"l_quantity", "l_discount"}, consts: []string{"0.05", "24.0", "3.5"}, arith: true},
		{cols: []string{"l_shipdate", "l_commitdate", "l_receiptdate"}, consts: []string{"date '1994-01-01'", "date '1995-03-15'", "date '1995-06-17'"}},
		{cols: []string{"l_flag", "l_flag"}, consts: []string{"true", "false"}},
		{cols: []string{"l_shipmode", "l_shipinstruct"}, consts: []string{"'MAIL'", "'NONE'", "'SHIP'"}},
		{cols: []string{"l_quantity", "l_discount"}, consts: []string{"1", "11", "24"}, arith: true, mixed: true},
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var out, preds []kernelShape
	for _, k := range kinds {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			preds = append(preds,
				kernelShape{pick(k.cols) + " " + op + " " + pick(k.consts), true},
				kernelShape{pick(k.consts) + " " + op + " " + pick(k.cols), true},
				kernelShape{k.cols[0] + " " + op + " " + k.cols[1], true})
		}
		for _, not := range []string{" ", " NOT "} {
			preds = append(preds,
				kernelShape{pick(k.cols) + not + "BETWEEN " + k.consts[0] + " AND " + k.consts[1], true},
				kernelShape{pick(k.cols) + not + "IN (" + strings.Join(k.consts, ", ") + ")", true},
				// A vector bound has no kernel: eval, and the same answer.
				kernelShape{k.cols[0] + not + "BETWEEN " + k.consts[0] + " AND " + k.cols[1], false})
		}
		if k.arith {
			for _, op := range []string{"+", "-", "*"} {
				out = append(out,
					kernelShape{k.cols[0] + " " + op + " " + k.cols[1], true},
					kernelShape{pick(k.cols) + " " + op + " " + pick(k.consts), !k.mixed},
					kernelShape{pick(k.consts) + " " + op + " " + pick(k.cols), !k.mixed},
					kernelShape{"(" + k.cols[0] + " " + op + " " + pick(k.consts) + ") " + op + " " + k.cols[1] + " < " + pick(k.consts), !k.mixed})
			}
		}
	}
	for _, pat := range []string{"'%PERSON'", "'_AIL'", "'%A%R%'", "'NONE'"} {
		preds = append(preds,
			kernelShape{"l_shipinstruct LIKE " + pat, true},
			kernelShape{"l_shipmode NOT LIKE " + pat, true})
	}
	for i := 0; i < 40; i++ {
		l, r := preds[rng.Intn(len(preds))], preds[rng.Intn(len(preds))]
		switch i % 4 {
		case 0:
			out = append(out, kernelShape{"NOT (" + l.text + ")", l.typed})
		case 1:
			out = append(out, kernelShape{"(" + l.text + ") AND (" + r.text + ")", l.typed && r.typed})
		case 2:
			out = append(out, kernelShape{"(" + l.text + ") OR (" + r.text + ")", l.typed && r.typed})
		default:
			out = append(out, kernelShape{"NOT ((" + l.text + ") AND (" + r.text + ")) OR " + l.text, l.typed && r.typed})
		}
	}
	return append(out, preds...)
}

// batchForm is a batch beside the boxed rows it stands for.
type batchForm struct {
	bt   *Batch
	rows []schema.Row
}

// batchForms returns rel's rows as the three forms a batch reaches evalVec in:
// row-backed, a page-backed window over their encoding — whole, and the cut of
// a longer one that a reply's scan delivers — and a join chain whose two parts
// split the columns, one boxed and one columnar as a scan leaves it, and whose
// position vectors are a shuffle.
func batchForms(t *testing.T, rng *rand.Rand, rel *MemRelation) map[string]batchForm {
	t.Helper()
	n, width := len(rel.Rows), rel.Sch.Len()
	var enc []byte
	for _, r := range rel.Rows {
		enc = schema.EncodeRow(enc, r)
	}
	win := schema.NewRowWindow(width)
	if _, err := win.Fill(enc, 0, n); err != nil || win.Len() != n {
		t.Fatalf("window over %d rows: %d filled, %v", n, win.Len(), err)
	}
	// The same rows behind a row that is not theirs: rows [1, n+1) of a window.
	long := schema.NewRowWindow(width)
	if _, err := long.Fill(append(schema.EncodeRow(nil, rel.Rows[n-1]), enc...), 0, n+1); err != nil {
		t.Fatal(err)
	}
	const split = 4
	left := &Result{Sch: rel.Sch.Select(seqInts(0, split))}
	right := &Result{Sch: rel.Sch.Select(seqInts(split, width)), n: n}
	for _, r := range rel.Rows {
		left.Rows = append(left.Rows, r[:split])
	}
	whole := NewWindowBatch(rel.Sch, win)
	for c := split; c < width; c++ {
		right.cols = append(right.cols, &schema.ColVec{})
		whole.AppendCol(right.cols[c-split], c, seqInts(0, n))
	}
	perm := make([]int32, n)
	shuffled := make([]schema.Row, n)
	for k, at := range rng.Perm(n) {
		perm[k], shuffled[k] = int32(at), rel.Rows[at]
	}
	return map[string]batchForm{
		"row-backed":  {NewBatch(rel.Sch, rel.Rows), rel.Rows},
		"page-backed": {NewWindowBatch(rel.Sch, win), rel.Rows},
		"window-cut":  {NewWindowBatch(rel.Sch, long).slice(1, n+1), rel.Rows},
		"join-chain":  {chainOf(left).join(perm, chainOf(right), perm).batch(0, n), shuffled},
	}
}

func seqInts(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestPushedPredicatesRunTyped holds the kernels to eval, which is the
// reference now that it is the only implementation of the language: for the
// pushed TPC-H predicate shapes and for every generated kernel shape × operand
// kind × {vector, constant}, over NULL-free and NULL-bearing columns, in each
// of the three batch forms, evalVec agrees with eval at every selected
// position — and over NULL-free columns a shape served by kernels evaluates to
// a typed vector, no boxed intermediate anywhere in the tree.
func TestPushedPredicatesRunTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := kernelShapes(rng)
	for _, text := range pushedShapes {
		shapes = append(shapes, kernelShape{text, true})
	}
	for _, text := range boxedShapes {
		shapes = append(shapes, kernelShape{text, false})
	}
	exprs := make([]ast.Expr, len(shapes))
	for i, sh := range shapes {
		sel, err := parser.ParseSelect("SELECT " + sh.text + " FROM lineitem")
		if err != nil {
			t.Fatalf("%s: %v", sh.text, err)
		}
		exprs[i] = sel.Items[0].Expr
	}
	for _, nulls := range []bool{false, true} {
		rel := lineitemish(200, nulls)
		for name, form := range batchForms(t, rng, rel) {
			b := &builder{batchRows: DefaultBatchRows}
			ctx := newCtx(b, rel.Sch, nil)
			for k, sh := range shapes {
				// Every position, or a random ascending subset of them.
				sel := b.fullSel(form.bt.Len())
				if k%2 == 1 {
					sel = nil
					for i := 0; i < form.bt.Len(); i++ {
						if rng.Intn(3) > 0 {
							sel = append(sel, i)
						}
					}
				}
				ctx.nextBatch()
				v, err := ctx.evalVec(exprs[k], form.bt, sel)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, sh.text, err)
				}
				if typed := !v.Const && (v.Ints != nil || v.Floats != nil); sh.typed && !nulls && !typed {
					t.Errorf("%s, %s: evaluated to a boxed vector over typed columns", name, sh.text)
				}
				for _, i := range sel {
					want, err := ctx.withRow(form.rows[i]).eval(exprs[k])
					if err != nil {
						t.Fatalf("%s, %s row %d: %v", name, sh.text, i, err)
					}
					if got := v.Value(i); got != want {
						t.Fatalf("%s, %s row %d (nulls=%v): vector %v, scalar %v", name, sh.text, i, nulls, got, want)
					}
				}
			}
		}
	}
}

// TestPushedPredicatesBatchInvariance runs the same shapes end to end through
// the scan, across batch sizes and against row mode.
func TestPushedPredicatesBatchInvariance(t *testing.T) {
	for _, nulls := range []bool{false, true} {
		cat := memCatalog{"lineitem": lineitemish(200, nulls)}
		for _, text := range append(append([]string{}, pushedShapes...), boxedShapes...) {
			sel, err := parser.ParseSelect("SELECT l_orderkey, l_shipmode FROM lineitem WHERE " + text)
			if err != nil {
				t.Fatal(err)
			}
			var ref *Result
			var refSnap simtime.Snapshot
			for _, size := range []int{1, 7, 64, DefaultBatchRows} {
				var m simtime.Meter
				res, err := RunBatched(sel, cat, &m, size)
				if err != nil {
					t.Fatalf("%s (batch=%d): %v", text, size, err)
				}
				snap := m.Snapshot()
				snap.Batches = 0
				if ref == nil {
					ref, refSnap = res, snap
					continue
				}
				if !reflect.DeepEqual(res.Rows, ref.Rows) {
					t.Errorf("%s (nulls=%v): batch=%d returns %d rows, row mode %d", text, nulls, size, len(res.Rows), len(ref.Rows))
				}
				if snap != refSnap {
					t.Errorf("%s: batch=%d accounting %+v, row mode %+v", text, size, snap, refSnap)
				}
			}
		}
	}
}

// TestConstSubexpressionLaziness pins that hoisting a column-free
// subexpression does not evaluate what the row path never reaches: the
// failing constant sits behind a branch no row takes.
func TestConstSubexpressionLaziness(t *testing.T) {
	cat := memCatalog{"lineitem": lineitemish(20, false)}
	for _, sql := range []string{
		"SELECT l_orderkey FROM lineitem WHERE l_size < 0 AND 1 / 0 > 1",
		"SELECT CASE WHEN l_size < 0 THEN 1 / 0 ELSE 2 END FROM lineitem",
		"SELECT l_orderkey FROM lineitem WHERE l_size >= 0 OR l_size IN (1, 1 / 0)",
	} {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, DefaultBatchRows} {
			if _, err := RunBatched(sel, cat, nil, size); err != nil {
				t.Errorf("%s (batch=%d): %v", sql, size, err)
			}
		}
	}
	sel, _ := parser.ParseSelect("SELECT l_orderkey FROM lineitem WHERE l_size >= 0 AND 1 / 0 > 1")
	for _, size := range []int{1, DefaultBatchRows} {
		if _, err := RunBatched(sel, cat, nil, size); err == nil {
			t.Errorf("batch=%d: a reached division by zero did not fail", size)
		}
	}
}

// TestReferencedColumns pins the statement-level analysis: which columns of
// which table a scan may drop, for the shapes where a reference is easy to
// miss.
func TestReferencedColumns(t *testing.T) {
	cat := testCatalog()
	cases := []struct {
		sql  string
		want map[string]string // table -> kept columns ("*" = all)
	}{
		{"SELECT name FROM users WHERE age > 30", map[string]string{"users": "name age"}},
		{"SELECT * FROM users", map[string]string{"users": "*"}},
		{"SELECT count(*) FROM orders", map[string]string{"orders": ""}},
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT * FROM orders o WHERE o.uid = u.id)",
			map[string]string{"users": "id name", "orders": "uid"}},
		{"SELECT u.name FROM users u WHERE NOT EXISTS (SELECT *, o.amount FROM orders o WHERE o.uid = u.id AND EXISTS (SELECT * FROM items i WHERE i.oid = o.oid))",
			map[string]string{"users": "id name", "orders": "oid uid amount", "items": "oid"}},
		// Only the EXISTS body itself is exempt: a * one level down is a real one.
		{"SELECT u.name FROM users u WHERE EXISTS (SELECT * FROM (SELECT * FROM orders) o WHERE o.uid = u.id)",
			map[string]string{"users": "id name", "orders": "*"}},
		{"SELECT name FROM users WHERE id IN (SELECT * FROM orders)",
			map[string]string{"users": "id name", "orders": "*"}},
		{"SELECT name FROM users WHERE id IN (SELECT uid FROM orders WHERE amount > 30)",
			map[string]string{"users": "id name", "orders": "uid amount"}},
		{"SELECT name, (SELECT max(amount) FROM orders o WHERE o.uid = u.id) FROM users u",
			map[string]string{"users": "id name", "orders": "uid amount"}},
		{"SELECT country AS c, count(*) FROM users GROUP BY 1 ORDER BY c",
			map[string]string{"users": "country"}},
		{"SELECT x.total FROM (SELECT uid, sum(amount) AS total FROM orders GROUP BY uid) x ORDER BY x.total",
			map[string]string{"orders": "uid amount"}},
		{"SELECT u.name FROM users u LEFT JOIN orders o ON o.uid = u.id AND o.status = 'OK'",
			map[string]string{"users": "id name", "orders": "uid status"}},
		// Conservative by design: a name keeps its column in every table.
		{"SELECT i.sku FROM items i, orders o WHERE i.oid = 100",
			map[string]string{"items": "oid sku", "orders": "oid"}},
	}
	for _, tc := range cases {
		sel, err := parser.ParseSelect(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		refs := collectRefs(sel)
		for table, want := range tc.want {
			sch := cat[table].Sch
			got := "*"
			if cols := refs.keep(table, sch); cols != nil {
				names := make([]string, len(cols))
				for i, c := range cols {
					names[i] = sch.Columns[c].Name
				}
				got = strings.Join(names, " ")
			}
			if got != want {
				t.Errorf("%s: %s keeps %q, want %q", tc.sql, table, got, want)
			}
		}
	}
}

// TestColumnPruningNeverDropsAReference runs the shapes where a referenced
// column is easiest to lose — correlated EXISTS / IN / scalar subqueries,
// SELECT *, ORDER BY an alias, positional GROUP BY, derived tables, outer
// joins — with pruning (vector mode) and without (row mode): the rows must be
// identical, and a pruned-but-needed column would surface as an unknown
// column error.
func TestColumnPruningNeverDropsAReference(t *testing.T) {
	queries := []string{
		"SELECT * FROM users ORDER BY id",
		"SELECT * FROM users u, orders o WHERE o.uid = u.id ORDER BY o.oid",
		"SELECT name FROM users u WHERE EXISTS (SELECT * FROM orders o WHERE o.uid = u.id AND o.amount > 60) ORDER BY name",
		"SELECT name FROM users u WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.uid = u.id) ORDER BY name",
		"SELECT name FROM users u WHERE NOT EXISTS (SELECT * FROM orders o WHERE o.uid = u.id) ORDER BY name",
		"SELECT name FROM users u WHERE EXISTS (SELECT * FROM orders) ORDER BY name",
		"SELECT name FROM users u WHERE EXISTS (SELECT *, o.status FROM orders o WHERE o.uid = u.id AND NOT EXISTS (SELECT * FROM items i WHERE i.oid = o.oid AND i.qty > 2)) ORDER BY name",
		"SELECT name FROM users u WHERE EXISTS (SELECT * FROM orders o, items i WHERE o.uid = u.id AND i.oid = o.oid AND i.qty > 1) ORDER BY name",
		"SELECT name FROM users u WHERE EXISTS (SELECT * FROM (SELECT * FROM orders) o WHERE o.uid = u.id AND o.amount > 60) ORDER BY name",
		"SELECT name FROM users WHERE id IN (SELECT uid FROM orders WHERE status = 'OK') ORDER BY name",
		"SELECT name FROM users u WHERE u.age > (SELECT avg(age) FROM users) ORDER BY name",
		"SELECT name, (SELECT sum(amount) FROM orders o WHERE o.uid = u.id) AS spent FROM users u ORDER BY spent DESC, name",
		"SELECT o.oid FROM orders o WHERE o.amount > (SELECT avg(o2.amount) FROM orders o2 WHERE o2.uid = o.uid) ORDER BY o.oid",
		"SELECT country AS c, count(*) AS n FROM users GROUP BY 1 ORDER BY n DESC, c",
		"SELECT country, sum(age) AS total FROM users GROUP BY country ORDER BY total",
		"SELECT x.uid, x.total FROM (SELECT uid, sum(amount) AS total FROM orders GROUP BY uid) x WHERE x.total > 30 ORDER BY x.uid",
		"SELECT u.name, o.oid FROM users u LEFT JOIN orders o ON o.uid = u.id AND o.status = 'OK' ORDER BY u.name, o.oid",
		"SELECT count(*) FROM orders",
		"SELECT count(*) FROM users u, orders o",
		"SELECT u.name, i.sku FROM users u, orders o, items i WHERE o.uid = u.id AND i.oid = o.oid AND i.qty > 1 ORDER BY u.name, i.sku",
	}
	for _, sql := range queries {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		row, err := RunBatched(sel, testCatalog(), nil, 1)
		if err != nil {
			t.Fatalf("%s (row mode): %v", sql, err)
		}
		for _, size := range []int{2, DefaultBatchRows} {
			vec, err := RunBatched(sel, testCatalog(), nil, size)
			if err != nil {
				t.Fatalf("%s (batch=%d): %v", sql, size, err)
			}
			if !reflect.DeepEqual(vec.Rows, row.Rows) || !reflect.DeepEqual(vec.Sch, row.Sch) {
				t.Errorf("%s (batch=%d):\n  got:  %v\n  want: %v", sql, size, vec.Rows, row.Rows)
			}
		}
	}
}

// TestScanPrunesAndFiltersInOnePass pins what the fused scan hands on: rows
// already filtered and narrowed — to the statement's select list when the
// statement is nothing but the scan, to the columns it references anywhere
// when something downstream still reads them — with the trace lines and the
// two per-window charges of the scan + filter pair it replaced.
func TestScanPrunesAndFiltersInOnePass(t *testing.T) {
	rel := lineitemish(100, false)
	var kept []int64
	for _, r := range rel.Rows {
		if r[8].AsInt() == 7 && r[6].AsString() == "MAIL" {
			kept = append(kept, r[0].AsInt())
		}
	}
	for _, tc := range []struct {
		sql     string
		columns []string
		left    int // conjuncts the scan could not take
	}{
		{"SELECT l_orderkey FROM lineitem WHERE l_size = 7 AND l_shipmode = 'MAIL'",
			[]string{"lineitem.l_orderkey"}, 0},
		{"SELECT l_shipmode, l_orderkey FROM lineitem WHERE l_size = 7 AND l_shipmode = 'MAIL'",
			[]string{"lineitem.l_shipmode", "lineitem.l_orderkey"}, 0},
		// A conjunct is left for later: the scan keeps what it reads.
		{"SELECT l_orderkey FROM lineitem WHERE l_size = 7 AND l_shipmode = 'MAIL' AND l_quantity < (SELECT 100)",
			[]string{"lineitem.l_orderkey", "lineitem.l_quantity", "lineitem.l_shipmode", "lineitem.l_size"}, 1},
		// Not a bare select list: the projection still has work to do.
		{"SELECT l_orderkey + 1 FROM lineitem WHERE l_size = 7 AND l_shipmode = 'MAIL'",
			[]string{"lineitem.l_orderkey", "lineitem.l_shipmode", "lineitem.l_size"}, 0},
	} {
		sel, err := parser.ParseSelect(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		var m simtime.Meter
		tr := &Trace{}
		b := &builder{cat: memCatalog{"lineitem": rel}, meter: &m, trace: tr, batchRows: 40, stmt: sel}
		scan, remaining, err := b.buildFrom(sel, nil, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The scan's rows: emitted boxed where they are the statement's, else
		// the columns it kept.
		res, err := scan.parts[0].Boxed()
		if err != nil || len(scan.parts) != 1 || scan.idx[0] != nil {
			t.Fatalf("%s: the scan's output is not one whole result (%v)", tc.sql, err)
		}
		if len(remaining) != tc.left {
			t.Errorf("%s: conjuncts left after pushdown: %v", tc.sql, remaining)
		}
		var names []string
		for _, c := range res.Sch.Columns {
			names = append(names, c.Name)
		}
		if !reflect.DeepEqual(names, tc.columns) {
			t.Errorf("%s: scan schema %v, want %v", tc.sql, names, tc.columns)
		}
		key := res.Sch.IndexOf("l_orderkey")
		var got []int64
		for _, r := range res.Rows {
			if len(r) != len(tc.columns) {
				t.Errorf("%s: scan kept row %v", tc.sql, r)
			}
			got = append(got, r[key].AsInt())
		}
		if !reflect.DeepEqual(got, kept) {
			t.Errorf("%s: scan kept orders %v, want %v", tc.sql, got, kept)
		}
		pushed := ast.SplitConjuncts(sel.Where)[:2]
		want := []string{
			"scan lineitem as lineitem -> 100 rows",
			fmt.Sprintf("filter %s: 100 -> %d rows", ast.JoinConjuncts(pushed), len(res.Rows)),
		}
		if got := tr.Lines(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: trace %q, want %q", tc.sql, got, want)
		}
		// Three windows (40, 40, 20), each charged once for the scan and once
		// for the filter.
		if snap := m.Snapshot(); snap.Batches != 6 || snap.TuplesProcessed != 200 || snap.TupleWork != 200 {
			t.Errorf("%s: charges %+v, want 6 batches over 200 tuples", tc.sql, snap)
		}
	}
}

// BenchmarkEvalVecPredicate times the pushed q6, q12 and q19 lineitem
// predicates over one full window of typed column vectors: the filter kernel
// alone, with the columns already decoded.
func BenchmarkEvalVecPredicate(b *testing.B) {
	rel := lineitemish(DefaultBatchRows, false)
	for _, name := range []string{"q6", "q12", "q19"} {
		where := mustWhere(b, scanPredicates[name])
		b.Run(name, func(b *testing.B) {
			bld := &builder{batchRows: DefaultBatchRows}
			ctx := newCtx(bld, rel.Sch, nil)
			bt := NewBatch(rel.Sch, rel.Rows)
			for c := range rel.Sch.Columns {
				bt.Col(c) // decode outside the timed loop
			}
			sel0 := bld.fullSel(bt.Len())
			var keep []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.nextBatch()
				v, err := ctx.evalVec(where, bt, sel0)
				if err != nil {
					b.Fatal(err)
				}
				keep = selectTrue(v, bt.Len(), ctx.sel(bt.Len()))
			}
			b.ReportMetric(float64(len(keep)), "rows-kept")
		})
	}
}
