package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/simtime"
	"ironsafe/internal/value"
)

// keyEqual is join-key equality as specified: no component NULL, HashKeys
// equal column by column.
func keyEqual(a, b []value.Value) bool {
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() || a[i].HashKey() != b[i].HashKey() {
			return false
		}
	}
	return true
}

// keyedRelation builds n rows (id, k1, k2): ids ascend, keys are drawn from
// the given pools, so duplicates are common on both sides.
func keyedRelation(rng *rand.Rand, n int, pool1, pool2 []value.Value) *MemRelation {
	rel := &MemRelation{Sch: schema.New(
		schema.Col("id", value.KindInt), schema.Col("k1", value.KindNull), schema.Col("k2", value.KindNull))}
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, schema.Row{value.Int(int64(i)), pool1[rng.Intn(len(pool1))], pool2[rng.Intn(len(pool2))]})
	}
	return rel
}

// TestJoinMatchesNestedLoop checks the hash join — rows and their order —
// against a nested loop written here, over inputs that exercise every key
// class and both build sides, and checks that the work charged does not
// depend on the batch size.
func TestJoinMatchesNestedLoop(t *testing.T) {
	ints := []value.Value{value.Int(1), value.Int(2), value.Int(3), value.Int(4)}
	pools := map[string][2][]value.Value{
		"int":         {ints, ints},
		"int+null":    {append([]value.Value{value.Null()}, ints...), ints},
		"int~float":   {ints, {value.Float(1), value.Float(2.5), value.Int(3), value.Float(4), value.Null()}},
		"int vs date": {ints, {value.Date(1), value.Date(2), value.Date(3)}},
		"string":      {{value.Str("a"), value.Str("b"), value.Str(""), value.Str("a\x00b")}, {value.Str("a"), value.Str(""), value.Str("a\x00b"), value.Str("c")}},
		"bool~int":    {{value.Bool(true), value.Bool(false), value.Int(1)}, {value.Bool(true), value.Int(1), value.Int(0)}},
	}
	sizes := [][2]int{{0, 9}, {9, 0}, {3, 40}, {40, 3}, {25, 25}, {1, 1}}
	rng := rand.New(rand.NewSource(15))
	for name, pool := range pools {
		for _, size := range sizes {
			for _, arity := range []int{1, 2} {
				cat := memCatalog{
					"l": keyedRelation(rng, size[0], pool[0], ints),
					"r": keyedRelation(rng, size[1], pool[1], ints),
				}
				sql := "SELECT l.id, r.id FROM l, r WHERE l.k1 = r.k1"
				if arity == 2 {
					sql += " AND r.k2 = l.k2"
				}
				var want []schema.Row
				for _, lr := range cat["l"].Rows {
					for _, rr := range cat["r"].Rows {
						if keyEqual(lr[1:1+arity], rr[1:1+arity]) {
							want = append(want, schema.Row{lr[0], rr[0]})
						}
					}
				}
				var ref simtime.Snapshot
				for _, batch := range []int{DefaultBatchRows, 1, 2, 7} {
					var m simtime.Meter
					res := mustRun(t, sql, cat, &m, batch)
					if !sameRows(res.Rows, want) {
						t.Fatalf("%s %dx%d arity %d batch %d:\n got %v\nwant %v", name, size[0], size[1], arity, batch, res.Rows, want)
					}
					snap := m.Snapshot()
					snap.Batches = 0
					if batch == DefaultBatchRows {
						ref = snap
					} else if snap != ref {
						t.Fatalf("%s %dx%d arity %d: batch %d charged %+v, batch %d charged %+v", name, size[0], size[1], arity, batch, snap, DefaultBatchRows, ref)
					}
				}
			}
		}
	}
}

// chainCatalog holds four relations a(id, k, x), b(id, k, j), c(id, j, m),
// d(id, m, y) whose keys repeat and are NULL now and then.
func chainCatalog() memCatalog {
	rng := rand.New(rand.NewSource(7))
	key := func() value.Value {
		if rng.Intn(9) == 0 {
			return value.Null()
		}
		return value.Int(int64(rng.Intn(4)))
	}
	rel := func(n int, cols ...string) *MemRelation {
		r := &MemRelation{Sch: schema.New(schema.Col("id", value.KindInt))}
		for _, c := range cols {
			r.Sch.Columns = append(r.Sch.Columns, schema.Col(c, value.KindInt))
		}
		for i := 0; i < n; i++ {
			row := schema.Row{value.Int(int64(i))}
			for range cols {
				row = append(row, key())
			}
			r.Rows = append(r.Rows, row)
		}
		return r
	}
	return memCatalog{"a": rel(9, "k", "x"), "b": rel(14, "k", "j"), "c": rel(6, "j", "m"), "d": rel(11, "m", "y")}
}

func eqInt(a, b value.Value) bool { return !a.IsNull() && !b.IsNull() && a.AsInt() == b.AsInt() }

// TestJoinChainStaysPositional runs a four-way join whose rows a post-join
// filter over the first and last relation cuts down, and requires that the
// statement's joins compose into one chain that reaches the select list as
// position vectors — never materialized on the way, a left outer join in the
// middle included, whose NULL extension is a position too — and that the select
// list boxes exactly the rows, in the order, of the nested loops the pairwise
// joins amount to. Row mode materializes after every join and must agree.
func TestJoinChainStaysPositional(t *testing.T) {
	cat := chainCatalog()
	rows := func(name string) []schema.Row { return cat[name].Rows }
	join := func(ra, rb schema.Row) schema.Row { return append(append(schema.Row{}, ra...), rb...) }

	var inner, outer []schema.Row
	for _, ra := range rows("a") {
		for _, rb := range rows("b") {
			if !eqInt(ra[1], rb[1]) {
				continue
			}
			ab := join(ra, rb)
			var cs []schema.Row // b's matches in c
			for _, rc := range rows("c") {
				if eqInt(rb[2], rc[1]) {
					cs = append(cs, rc)
				}
			}
			for _, rc := range cs {
				for _, rd := range rows("d") {
					if eqInt(rc[2], rd[1]) && !ra[2].IsNull() && !rd[2].IsNull() && ra[2].AsInt()+rd[2].AsInt() > 2 {
						inner = append(inner, join(join(ab, rc), rd))
					}
				}
			}
			if len(cs) == 0 { // the left outer join's null extension
				cs = []schema.Row{{value.Null(), value.Null(), value.Null()}}
			}
			for _, rc := range cs {
				for _, rd := range rows("d") {
					if eqInt(ra[2], rd[2]) {
						outer = append(outer, join(join(ab, rc), rd))
					}
				}
			}
		}
	}
	if len(inner) == 0 || len(outer) == 0 {
		t.Fatal("reference is empty: the fixture joins nothing")
	}

	for _, tc := range []struct {
		name, sql string
		want      []schema.Row
	}{
		{"comma joins", "SELECT * FROM a, b, c, d WHERE c.m = d.m AND a.k = b.k AND a.x + d.y > 2 AND b.j = c.j", inner},
		{"explicit joins", "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.j = c.j JOIN d ON c.m = d.m AND a.x + d.y > 2", inner},
		{"left join in the middle", "SELECT * FROM a JOIN b ON a.k = b.k LEFT OUTER JOIN c ON b.j = c.j JOIN d ON a.x = d.y", outer},
	} {
		res, tr, err := Explain(mustParse(t, tc.sql), cat, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameRows(res.Rows, tc.want) {
			t.Errorf("%s: rows differ from the nested loops:\n got %v\nwant %v", tc.name, res.Rows, tc.want)
		}
		var chains []string
		for _, line := range tr.Lines() {
			if strings.HasPrefix(line, "join chain:") {
				chains = append(chains, line)
			}
		}
		if want := fmt.Sprintf("join chain: 3 joins, %d rows x 12 columns by position", len(tc.want)); len(chains) != 1 || chains[0] != want {
			t.Errorf("%s: chains %q, want the one line %q:\n%s", tc.name, chains, want, tr)
		}
		// Row mode materializes at every step and must agree.
		if row := mustRun(t, tc.sql, cat, nil, 1); !sameRows(row.Rows, tc.want) {
			t.Errorf("%s: row mode differs", tc.name)
		}
	}
}

// TestExplainJoinBuildSide pins the build side to the smaller input.
func TestExplainJoinBuildSide(t *testing.T) {
	_, plan := explain(t, "SELECT u.name FROM users u, orders o WHERE u.id = o.uid")
	if !strings.Contains(plan, "hash join on [u.id]: 4 x 5 -> 4 rows, build left") {
		t.Errorf("4 x 5 should build left:\n%s", plan)
	}
	_, plan = explain(t, "SELECT u.name FROM orders o, users u WHERE u.id = o.uid")
	if !strings.Contains(plan, "hash join on [o.uid]: 5 x 4 -> 4 rows, build right") {
		t.Errorf("5 x 4 should build right:\n%s", plan)
	}
}

// TestCrossJoinOrderIsDeterministic joins three relations of equal size with
// nothing linking them: which one the planner crosses in next must not depend
// on map iteration order.
func TestCrossJoinOrderIsDeterministic(t *testing.T) {
	cat := memCatalog{}
	for _, name := range []string{"t1", "t2", "t3"} {
		rel := &MemRelation{Sch: schema.New(schema.Col(name+"v", value.KindString))}
		for i := 0; i < 3; i++ {
			rel.Rows = append(rel.Rows, schema.Row{value.Str(fmt.Sprintf("%s-%d", name, i))})
		}
		cat[name] = rel
	}
	first := mustRun(t, "SELECT * FROM t1, t2, t3", cat, nil, 0)
	if len(first.Rows) != 27 {
		t.Fatalf("%d rows, want 27", len(first.Rows))
	}
	// Ties go to the lowest FROM position: t2 varies slower than t3.
	if got := fmt.Sprint(first.Rows[1]); got != "[t1-0 t2-0 t3-1]" {
		t.Errorf("second row %s, want [t1-0 t2-0 t3-1]", got)
	}
	for i := 0; i < 50; i++ {
		if again := mustRun(t, "SELECT * FROM t1, t2, t3", cat, nil, 0); !reflect.DeepEqual(again.Rows, first.Rows) {
			t.Fatalf("run %d ordered the rows differently", i)
		}
	}
}

// semiCase is a comma join of tables t0, t1, … of (id, k1, k2, v): table i
// keeps its rows with v < cut[i], and every link equates a key column of a
// table with the same column of an earlier one. Each table past the first has
// such a link, so the planner joins in FROM order and the statement's rows are
// those of the nested loops want runs, in their order.
type semiCase struct {
	cat   memCatalog
	cut   []int
	links []semiLink
}

type semiLink struct{ a, b, col int } // t<a>.k<col> = t<b>.k<col>, a < b

// semiRelation builds n rows (id, k1, k2, v) with keys drawn from the pools
// and v from [0, 10).
func semiRelation(rng *rand.Rand, n int, pool1, pool2 []value.Value) *MemRelation {
	rel := keyedRelation(rng, n, pool1, pool2)
	rel.Sch.Columns = append(rel.Sch.Columns, schema.Col("v", value.KindInt))
	for i := range rel.Rows {
		rel.Rows[i] = append(rel.Rows[i], value.Int(int64(rng.Intn(10))))
	}
	return rel
}

// sql renders the case with its WHERE conjuncts in the order perm gives and
// every equality written whichever way round flip says.
func (c *semiCase) sql(perm func(n int) []int, flip func() bool) string {
	var from, items, where []string
	for i, cut := range c.cut {
		name := fmt.Sprintf("t%d", i)
		from, items = append(from, name), append(items, name+".id")
		where = append(where, fmt.Sprintf("%s.v < %d", name, cut))
	}
	for _, l := range c.links {
		a, b := l.a, l.b
		if flip() {
			a, b = b, a
		}
		where = append(where, fmt.Sprintf("t%d.k%d = t%d.k%d", a, l.col, b, l.col))
	}
	shuffled := make([]string, len(where))
	for i, p := range perm(len(where)) {
		shuffled[i] = where[p]
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s", strings.Join(items, ", "), strings.Join(from, ", "), strings.Join(shuffled, " AND "))
}

// want is the reference: nested loops over the tables in FROM order.
func (c *semiCase) want() []schema.Row {
	var out []schema.Row
	tuple := make([]schema.Row, len(c.cut))
	var loop func(i int)
	loop = func(i int) {
		if i == len(tuple) {
			row := make(schema.Row, len(tuple))
			for j, r := range tuple {
				row[j] = r[0]
			}
			out = append(out, row)
			return
		}
	rows:
		for _, r := range c.cat[fmt.Sprintf("t%d", i)].Rows {
			if r[3].AsInt() >= int64(c.cut[i]) {
				continue
			}
			for _, l := range c.links {
				if l.b == i && !keyEqual(tuple[l.a][l.col:l.col+1], r[l.col:l.col+1]) {
					continue rows
				}
			}
			tuple[i] = r
			loop(i + 1)
		}
	}
	loop(0)
	return out
}

// runTraced runs sql at the given batch size and returns its trace with it.
func runTraced(t *testing.T, sql string, cat Catalog, batch int) (*Result, string) {
	t.Helper()
	sel := mustParse(t, sql)
	b := &builder{cat: cat, trace: &Trace{}, batchRows: normBatchRows(batch), stmt: sel}
	res, err := b.buildSelect(sel, nil)
	if err != nil {
		t.Fatalf("%s (batch=%d): %v", sql, batch, err)
	}
	return res, b.trace.String()
}

// TestSemiReductionMatchesNestedLoop checks statements whose table scans are
// filtered by the join keys of earlier FROM entries — rows and their order —
// against nested loops written here, at the batch size that never reduces and
// at two that do, over every key class the join knows; and checks that the
// statements reduction must leave alone are left alone.
func TestSemiReductionMatchesNestedLoop(t *testing.T) {
	ints := func(n int) []value.Value {
		out := make([]value.Value, n)
		for i := range out {
			out[i] = value.Int(int64(i + 1))
		}
		return out
	}
	pools := [][]value.Value{
		ints(3), // every source holds every key: a reducer that rejects nothing
		append([]value.Value{value.Null()}, ints(9)...),
		{value.Int(1), value.Float(1), value.Float(2.5), value.Float(3), value.Int(4), value.Null()},
		{value.Int(1), value.Date(1), value.Int(2), value.Date(2), value.Date(3)},
	}
	sizes := []int{0, 1, 6, 15, 40}
	cuts := []int{0, 4, 6, 8, 10} // 0 empties a source, 10 leaves it whole
	check := func(name string, c *semiCase, sql string) (traces string) {
		t.Helper()
		want := c.want()
		for _, batch := range []int{1, 7, DefaultBatchRows} {
			res, tr := runTraced(t, sql, c.cat, batch)
			if !sameRows(res.Rows, want) {
				at := 0
				for at < len(want) && at < len(res.Rows) && sameRows(res.Rows[at:at+1], want[at:at+1]) {
					at++
				}
				t.Fatalf("%s: %s (batch=%d): %d rows, want %d, first difference at row %d\n%s", name, sql, batch, len(res.Rows), len(want), at, tr)
			}
			if batch == 1 && strings.Contains(tr, "semi-join") {
				t.Fatalf("%s: %s: row mode reduced a scan:\n%s", name, sql, tr)
			}
			traces += tr + "\n"
		}
		return traces
	}

	rng := rand.New(rand.NewSource(16))
	flip := func() bool { return rng.Intn(2) == 0 }
	reduced, rows := 0, 0
	for iter := 0; iter < 400; iter++ {
		c := &semiCase{cat: memCatalog{}}
		for i := 0; i < 2+rng.Intn(3); i++ {
			c.cat[fmt.Sprintf("t%d", i)] = semiRelation(rng, sizes[rng.Intn(len(sizes))], pools[rng.Intn(len(pools))], ints(3))
			c.cut = append(c.cut, cuts[rng.Intn(len(cuts))])
			if i == 0 {
				continue
			}
			l := semiLink{a: rng.Intn(i), b: i, col: 1}
			c.links = append(c.links, l)
			if rng.Intn(3) == 0 { // a two-column key
				c.links = append(c.links, semiLink{a: l.a, b: i, col: 2})
			}
			if rng.Intn(4) == 0 { // a second source, or the same key twice
				c.links = append(c.links, semiLink{a: rng.Intn(i), b: i, col: 1})
			}
		}
		traces := check(fmt.Sprintf("case %d", iter), c, c.sql(rng.Perm, flip))
		reduced += strings.Count(traces, "semi-join reduce")
		rows += len(c.want())
	}
	t.Logf("%d scans reduced, %d rows joined", reduced, rows)
	if reduced < 200 || rows < 2000 {
		t.Errorf("the cases barely exercise reduction: %d scans reduced, %d rows joined", reduced, rows)
	}

	// A source with no rows rejects everything; one holding every key sits out
	// one window after the first it probes and three after the second.
	col := func(vals ...int64) (out []value.Value) {
		for _, v := range vals {
			out = append(out, value.Int(v))
		}
		return out
	}
	table := func(n int, k1, v []value.Value) *MemRelation {
		rel := semiRelation(rng, n, k1, ints(1))
		for i, r := range rel.Rows {
			r[1], r[3] = k1[i%len(k1)], v[i%len(v)]
		}
		return rel
	}
	empty := &semiCase{cat: memCatalog{"t0": table(5, ints(3), col(4)), "t1": table(20, ints(3), col(1))}, cut: []int{0, 10}, links: []semiLink{{0, 1, 1}}}
	if tr := check("empty source", empty, empty.sql(rng.Perm, flip)); !strings.Contains(tr, "from t0: 20 -> 0 rows") {
		t.Errorf("an empty source should reject every row:\n%s", tr)
	}
	whole := &semiCase{cat: memCatalog{"t0": table(12, ints(3), col(1, 1, 1, 7)), "t1": table(40, ints(3), col(1))}, cut: []int{5, 10}, links: []semiLink{{0, 1, 1}}}
	if tr := check("source rejects nothing", whole, whole.sql(rng.Perm, flip)); !strings.Contains(tr, "from t0: 40 -> 40 rows (14 probed)") {
		t.Errorf("at batch size 7 a reducer that rejects nothing should probe the second and fourth of six windows:\n%s", tr)
	}
	// t1 and t2 join each other and nothing joins them to t0, so the smaller of
	// the two is crossed in first: that is t1 by what the scans' own predicates
	// left, whatever t1's keys then cut t2 down to.
	cross := &semiCase{cat: memCatalog{"t0": table(2, ints(1), col(1)), "t1": table(10, ints(2), col(1, 1, 7)), "t2": table(8, ints(8), col(1))},
		cut: []int{10, 5, 10}, links: []semiLink{{1, 2, 1}}}
	if tr := check("cross join order", cross, cross.sql(rng.Perm, flip)); !strings.Contains(tr, "from t1: 8 -> 2 rows") {
		t.Errorf("t1's keys should reduce t2's scan:\n%s", tr)
	}

	// Statements reduction must not touch: they run as ExecBatchRows=1 runs them.
	cat := memCatalog{"a": table(9, ints(4), col(1, 7)), "b": table(30, ints(6), col(1)), "outer": table(1, ints(1), col(1))}
	for name, sql := range map[string]string{
		"left outer join":   "SELECT a.id, b.id FROM a LEFT OUTER JOIN b ON a.k1 = b.k1 WHERE a.v < 5",
		"explicit join":     "SELECT a.id, b.id FROM a JOIN b ON a.k1 = b.k1 WHERE a.v < 5",
		"derived source":    "SELECT d.id, b.id FROM (SELECT * FROM a WHERE v < 5) AS d, b WHERE d.k1 = b.k1",
		"derived target":    "SELECT a.id, d.id FROM a, (SELECT * FROM b) AS d WHERE a.k1 = d.k1 AND a.v < 5",
		"equality under OR": "SELECT a.id, b.id FROM a, b WHERE (a.k1 = b.k1 OR a.k2 = b.k2) AND a.v < 5",
		"unfiltered source": "SELECT a.id, b.id FROM a, b WHERE a.k1 = b.k1",
	} {
		res, tr := runTraced(t, sql, cat, 0)
		if strings.Contains(tr, "semi-join") {
			t.Errorf("%s: reduced:\n%s", name, tr)
		}
		if row, _ := runTraced(t, sql, cat, 1); !sameRows(res.Rows, row.Rows) || len(res.Rows) == 0 {
			t.Errorf("%s: %d rows, row mode %d", name, len(res.Rows), len(row.Rows))
		}
	}
	// A key that reads an outer row is the join's to apply, not the scan's.
	env := &Env{Sch: cat["outer"].Sch.Qualify("o"), Row: cat["outer"].Rows[0]}
	sel := mustParse(t, "SELECT a.id, b.id FROM a, b WHERE a.k1 + o.k1 = b.k1 AND a.v < 5")
	b := &builder{cat: cat, trace: &Trace{}, batchRows: DefaultBatchRows, stmt: sel}
	res, err := b.buildSelect(sel, env)
	if err != nil {
		t.Fatal(err)
	}
	if tr := b.trace.String(); strings.Contains(tr, "semi-join") || !strings.Contains(tr, "hash join on [(a.k1 + o.k1)]") {
		t.Errorf("correlated key: want a hash join and no reduction:\n%s", tr)
	}
	bound := mustRun(t, "SELECT a.id, b.id FROM a, b WHERE a.k1 + 1 = b.k1 AND a.v < 5", cat, nil, 1)
	if !sameRows(res.Rows, bound.Rows) || len(res.Rows) == 0 {
		t.Errorf("correlated key: %d rows, with the outer value written in %d", len(res.Rows), len(bound.Rows))
	}
}
