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

// TestJoinChainMaterializesOnce runs a four-way join whose rows a post-join
// filter over the first and last relation cuts down, and requires that the
// chain of three joins is materialized once, after the filter, into exactly the
// rows — in the order — of the nested loops the pairwise joins amount to. A
// left outer join in the middle splits the statement into two chains, each
// materialized once.
func TestJoinChainMaterializesOnce(t *testing.T) {
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
		chains    []string
	}{
		{"comma joins", "SELECT * FROM a, b, c, d WHERE c.m = d.m AND a.k = b.k AND a.x + d.y > 2 AND b.j = c.j",
			inner, []string{fmt.Sprintf("join chain: 3 joins, %d rows x 12 columns materialized", len(inner))}},
		{"explicit joins", "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.j = c.j JOIN d ON c.m = d.m AND a.x + d.y > 2",
			inner, []string{fmt.Sprintf("join chain: 3 joins, %d rows x 12 columns materialized", len(inner))}},
		{"left join in the middle", "SELECT * FROM a JOIN b ON a.k = b.k LEFT OUTER JOIN c ON b.j = c.j JOIN d ON a.x = d.y",
			outer, []string{"join chain: 1 joins, ", fmt.Sprintf("join chain: 1 joins, %d rows x 12 columns materialized", len(outer))}},
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
		if len(chains) != len(tc.chains) {
			t.Fatalf("%s: %d materializations, want %d:\n%s", tc.name, len(chains), len(tc.chains), tr)
		}
		for i, want := range tc.chains {
			if !strings.HasPrefix(chains[i], want) {
				t.Errorf("%s: trace line %q, want %q", tc.name, chains[i], want)
			}
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
