package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/value"
)

// columnarCatalog holds the column shapes a whole-result vector has to get
// right: t.k and u.k mix Int and Float within one column (an integral Float
// joins the Int it equals) and hold NULLs, t.s is a string column with NULLs,
// u.tag a low-cardinality one, and e has no rows at all.
func columnarCatalog() memCatalog {
	t := &MemRelation{Sch: schema.New(schema.Col("id", value.KindInt), schema.Col("k", value.KindInt),
		schema.Col("s", value.KindString), schema.Col("g", value.KindInt), schema.Col("x", value.KindFloat))}
	for i := 0; i < 60; i++ {
		row := schema.Row{value.Int(int64(i)), value.Int(int64(i % 23)), value.Str(fmt.Sprintf("s%d", i%19)), value.Int(int64(i % 5)), value.Float(float64(i) * 1.5)}
		switch {
		case i%11 == 10:
			row[1] = value.Null()
		case i%2 == 1:
			row[1] = value.Float(float64(i % 23))
		}
		if i%7 == 3 {
			row[2] = value.Null()
		}
		t.Rows = append(t.Rows, row)
	}
	u := &MemRelation{Sch: schema.New(schema.Col("id", value.KindInt), schema.Col("k", value.KindInt),
		schema.Col("tag", value.KindString), schema.Col("v", value.KindInt))}
	for j := 0; j < 40; j++ {
		row := schema.Row{value.Int(int64(j)), value.Int(int64(j * 2 % 29)), value.Str(string(rune('a' + j%3))), value.Int(int64(j * 3 % 17))}
		switch {
		case j%13 == 12:
			row[1] = value.Null()
		case j%3 == 0:
			row[1] = value.Float(float64(j*2%29) + 0.5*float64(j%2))
		}
		if j%9 == 8 {
			row[2] = value.Null()
		}
		u.Rows = append(u.Rows, row)
	}
	return memCatalog{"t": t, "u": u, "e": &MemRelation{Sch: u.Sch}}
}

// rowsOnly is a relation that hands out boxed rows and nothing else: no
// ScanBatch, so its scan is the row loop at every batch size and its WHERE is a
// filter over the chain, not fused.
type rowsOnly struct{ rel *MemRelation }

func (r rowsOnly) Schema() *schema.Schema { return r.rel.Sch }

func (r rowsOnly) Scan(fn func(schema.Row) error) error { return r.rel.Scan(fn) }

// TestColumnarMatchesRowMode holds the columnar intermediates to the boxed
// ones, which run under batch size 1: over statement shapes that cross every
// operator that used to take rows — a left outer join's NULL extension and
// residual, grouping over a join chain, EXISTS / IN / scalar subqueries and
// their caches, a derived table, a cross join, DISTINCT, an empty input,
// LIMIT 0 — with seeded predicates, the rows are byte-identical at batch sizes
// 1, 7 and 4 096, over boxed relations, over the same tables held as retained
// replies and over relations that can only be scanned row by row; the first two
// input forms charge the same at every batch size; and where no semi-join
// reducer fires (row mode forms none) vector mode charges what row mode
// charges, dispatches aside. The fixed statements include a pass-through
// select list over a filter that keeps nothing, some and all of one boxed part.
func TestColumnarMatchesRowMode(t *testing.T) {
	atoms := []string{
		"t.g > 1", "t.s LIKE 's1%'", "t.s IS NULL", "t.s IS NOT NULL", "t.k < 10", "t.k = 4.0", "t.k IS NULL",
		"t.x BETWEEN 10 AND 50", "t.id % 3 = 0", "t.s || 'z' > 's3'", "t.x / 2 > t.g", "t.g IN (1, 3)", "t.s < 's5'",
	}
	shapes := []string{
		"SELECT t.id, u.id, t.s, u.tag FROM t LEFT OUTER JOIN u ON t.k = u.k AND u.v > t.g WHERE %s",
		"SELECT t.id, u.tag FROM t LEFT OUTER JOIN u ON t.k = u.k WHERE (u.id IS NULL OR u.v > 5) AND %s",
		"SELECT t.g, count(*), count(u.id), sum(u.v), min(t.s), max(u.tag) FROM t LEFT OUTER JOIN u ON t.k = u.k WHERE %s GROUP BY t.g ORDER BY t.g",
		"SELECT u.tag, t.g, sum(t.x), count(*), avg(u.v) FROM t, u WHERE t.k = u.k AND %s GROUP BY u.tag, t.g ORDER BY 1, 2",
		"SELECT t.id FROM t WHERE EXISTS (SELECT * FROM u WHERE u.k = t.k AND u.v > t.g) AND %s",
		"SELECT t.id FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.k) OR %s",
		"SELECT t.id, t.s FROM t WHERE t.k IN (SELECT u.k FROM u WHERE u.v > 3) AND %s",
		"SELECT t.id FROM t WHERE t.g NOT IN (SELECT u.v FROM u WHERE u.tag = 'a') AND %s",
		"SELECT t.id, (SELECT max(u.v) FROM u WHERE u.k = t.k), (SELECT count(*) FROM u WHERE u.k = t.k AND u.v < t.g) FROM t WHERE %s",
		"SELECT t.id FROM t WHERE t.x > (SELECT avg(u.v) * 2 FROM u WHERE u.k = t.k) AND %s",
		"SELECT t.id, u.id FROM t, u WHERE t.k = u.k AND u.v = (SELECT min(u2.v) FROM u u2 WHERE u2.k = t.k) AND %s",
		"SELECT s, count(*), sum(x) FROM t WHERE %s GROUP BY s ORDER BY s",
		"SELECT k, count(*), sum(x) FROM t WHERE %s GROUP BY k ORDER BY 2 DESC, 3",
		"SELECT DISTINCT u.tag, t.g FROM u, t WHERE u.k = t.k AND %s",
		"SELECT t.id, e.tag FROM t LEFT OUTER JOIN e ON t.k = e.k WHERE %s",
		"SELECT e.id, t.id FROM e, t WHERE e.k = t.k AND %s",
		"SELECT t.id FROM t WHERE EXISTS (SELECT 1 FROM e WHERE e.k = t.k) OR %s",
		"SELECT t.id FROM t WHERE %s ORDER BY t.x DESC LIMIT 0",
		"SELECT t.id, t.s FROM t WHERE %s ORDER BY t.s DESC, t.id LIMIT 7",
		"SELECT n, count(*) FROM (SELECT t.id, count(u.id) AS n FROM t LEFT OUTER JOIN u ON t.k = u.k AND u.tag NOT LIKE '%%b%%' WHERE %s GROUP BY t.id) AS c GROUP BY n ORDER BY 2 DESC, 1 DESC",
		"SELECT t1.g, count(*) FROM t t1, u WHERE t1.k = u.k AND EXISTS (SELECT * FROM t t2 WHERE t2.g = t1.g AND t2.id <> t1.id) AND NOT EXISTS (SELECT * FROM t t3 WHERE t3.g = t1.g AND t3.id <> t1.id AND t3.x > t1.x + 200) GROUP BY t1.g ORDER BY 1",
		"SELECT u.id, sum(t.x) FROM t, u WHERE u.k IN (SELECT k FROM t GROUP BY k HAVING sum(x) > 80) AND t.k = u.k AND %s GROUP BY u.id ORDER BY 2 DESC, 1",
		"SELECT t.id, u.id FROM t, u WHERE t.id < 3 AND u.id < 2 AND %s",
		"SELECT t.id + u.v, t.s || u.tag FROM t JOIN u ON t.k = u.k JOIN u u2 ON u2.id = t.g WHERE %s",
	}
	fixed := []string{
		"SELECT count(*), sum(v), min(tag) FROM e",
		"SELECT * FROM t LIMIT 0",
		"SELECT g, count(*) FROM t GROUP BY g LIMIT 0",
		"SELECT tag, count(*) FROM e GROUP BY tag",
		"SELECT * FROM (SELECT id, x FROM t) AS d WHERE d.x > 1000000",
		"SELECT * FROM (SELECT id, x FROM t) AS d WHERE d.x > 40",
		"SELECT * FROM (SELECT id, x FROM t) AS d WHERE d.x >= 0",
		"SELECT * FROM t WHERE x > 1000000",
		"SELECT id, k, s, g, x FROM t WHERE x > 1000000 OR s IS NULL",
		"SELECT t.id, u.id FROM t, u WHERE t.k = u.k AND t.x > 1000000",
		"SELECT * FROM (SELECT t.id, u.v FROM t, u WHERE t.k = u.k AND t.x > 1000000) AS d",
	}
	rng := rand.New(rand.NewSource(22))
	var stmts []string
	for _, shape := range shapes {
		for n := 0; n < 3 && strings.Contains(shape, "%s"); n++ {
			p := atoms[rng.Intn(len(atoms))]
			switch q := atoms[rng.Intn(len(atoms))]; rng.Intn(3) {
			case 0:
				p = "(" + p + " AND " + q + ")"
			case 1:
				p = "(" + p + " OR NOT (" + q + "))"
			}
			stmts = append(stmts, fmt.Sprintf(shape, p))
		}
		if !strings.Contains(shape, "%s") {
			stmts = append(stmts, shape)
		}
	}
	stmts = append(stmts, fixed...)

	mem := columnarCatalog()
	replies, plain := relCatalog{}, relCatalog{}
	for name, rel := range mem {
		replies[name] = retained(t, rel)
		plain[name] = rowsOnly{rel}
	}
	some := 0
	for _, sql := range stmts {
		_, tr, err := Explain(mustParse(t, sql), mem, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		reduced := strings.Contains(tr.String(), "semi-join reduce")
		var want *Result
		var rowMode simtime.Snapshot
		for _, batch := range []int{1, 7, DefaultBatchRows} {
			var mm, mr simtime.Meter
			boxed := mustRun(t, sql, mem, &mm, batch)
			reply := mustRun(t, sql, replies, &mr, batch)
			if mm.Snapshot() != mr.Snapshot() {
				t.Errorf("%s (batch %d): charges diverge between the input forms:\n  boxed:    %+v\n  retained: %+v", sql, batch, mm.Snapshot(), mr.Snapshot())
			}
			snap := mm.Snapshot()
			snap.Batches = 0
			if batch == 1 {
				want, rowMode = boxed, snap
				some += len(want.Rows)
			}
			forms := map[string]*Result{"boxed relations": boxed, "retained replies": reply, "row-only relations": mustRun(t, sql, plain, nil, batch)}
			for form, got := range forms {
				if !sameRows(got.Rows, want.Rows) {
					t.Errorf("%s (batch %d, %s):\n got %v\nwant %v", sql, batch, form, got.Rows, want.Rows)
				}
			}
			if batch == DefaultBatchRows && !reduced && snap != rowMode {
				t.Errorf("%s: vector mode charges %+v, row mode %+v", sql, snap, rowMode)
			}
		}
	}
	if some < 10*len(stmts) {
		t.Errorf("the %d statements return %d rows in all: the fixture selects next to nothing", len(stmts), some)
	}
}
