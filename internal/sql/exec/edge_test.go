package exec

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/parser"
	"ironsafe/internal/value"
)

// TestLikeMatcherAgainstRegexpReference cross-checks the iterative LIKE
// matcher against a regexp translation over random strings and patterns.
func TestLikeMatcherAgainstRegexpReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := "abc%_"
	randStr := func(n int, allowWild bool) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			c := alphabet[rng.Intn(len(alphabet))]
			if !allowWild {
				for c == '%' || c == '_' {
					c = alphabet[rng.Intn(3)]
				}
			}
			sb.WriteByte(c)
		}
		return sb.String()
	}
	likeToRegexp := func(p string) *regexp.Regexp {
		var sb strings.Builder
		sb.WriteString("^(?s)")
		for i := 0; i < len(p); i++ {
			switch p[i] {
			case '%':
				sb.WriteString(".*")
			case '_':
				sb.WriteString(".")
			default:
				sb.WriteString(regexp.QuoteMeta(string(p[i])))
			}
		}
		sb.WriteString("$")
		return regexp.MustCompile(sb.String())
	}
	for i := 0; i < 20000; i++ {
		s := randStr(rng.Intn(12), false)
		p := randStr(rng.Intn(8), true)
		want := likeToRegexp(p).MatchString(s)
		if got := likeMatch(s, p); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, regexp says %v", s, p, got, want)
		}
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	res := q(t, "SELECT count(*) FROM orders HAVING count(*) > 3")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 5 {
		t.Errorf("having over global agg = %v", res.Rows)
	}
	res = q(t, "SELECT count(*) FROM orders HAVING count(*) > 100")
	if len(res.Rows) != 0 {
		t.Errorf("failing having should drop the group: %v", res.Rows)
	}
}

func TestDistinctWithOrderBy(t *testing.T) {
	res := q(t, "SELECT DISTINCT status FROM orders ORDER BY status DESC")
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "PENDING" {
		t.Errorf("distinct+order = %v", res.Rows)
	}
}

func TestJoinWithNullKeysProducesNoMatches(t *testing.T) {
	// dave's age is NULL; a self-join on age must not match NULL = NULL.
	res := q(t, `SELECT a.name FROM users a, users b
	             WHERE a.age = b.age AND a.id <> b.id`)
	if len(res.Rows) != 0 {
		t.Errorf("NULL join keys matched: %v", res.Rows)
	}
}

func TestDivisionByZeroSurfacesError(t *testing.T) {
	qErr(t, "SELECT amount / (amount - amount) FROM orders")
	qErr(t, "SELECT oid % 0 FROM orders")
}

func TestModuloOperator(t *testing.T) {
	res := q(t, "SELECT oid FROM orders WHERE oid % 2 = 0 ORDER BY oid")
	if len(res.Rows) != 3 { // 100, 102, 104
		t.Errorf("modulo filter = %v", res.Rows)
	}
}

func TestNestedSubqueries(t *testing.T) {
	res := q(t, `SELECT name FROM users WHERE id IN (
	                SELECT uid FROM orders WHERE oid IN (
	                    SELECT oid FROM items WHERE qty > 2))
	             ORDER BY name`)
	// items qty>2: oids 101 (widget 5), 103 (doohickey 3) -> uids 1, 3.
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "alice" {
		t.Errorf("nested in = %v", res.Rows)
	}
}

func TestSubqueryInSelectList(t *testing.T) {
	res := q(t, `SELECT name, (SELECT count(*) FROM orders o WHERE o.uid = u.id) AS n
	             FROM users u ORDER BY u.id`)
	want := []int64{2, 1, 1, 0}
	for i, r := range res.Rows {
		if r[1].AsInt() != want[i] {
			t.Errorf("row %d: n = %v, want %d", i, r[1], want[i])
		}
	}
}

func TestEmptyTableAggregation(t *testing.T) {
	cat := testCatalog()
	cat["empty"] = &MemRelation{Sch: schema.New(schema.Col("x", value.KindInt))}
	sel := mustParse(t, "SELECT count(*), sum(x), min(x) FROM empty")
	res, err := Run(sel, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].AsInt() != 0 || !r[1].IsNull() || !r[2].IsNull() {
		t.Errorf("empty aggregation = %v", r)
	}
	// Grouped aggregation over empty input yields zero groups.
	sel = mustParse(t, "SELECT x, count(*) FROM empty GROUP BY x")
	res, _ = Run(sel, cat, nil)
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty = %v", res.Rows)
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	// Our ordering places NULL before non-NULL (Compare semantics).
	res := q(t, "SELECT name, age FROM users ORDER BY age")
	if res.Rows[0][0].AsString() != "dave" {
		t.Errorf("NULL age should sort first: %v", res.Rows)
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	res := q(t, "SELECT CASE WHEN id > 100 THEN 'big' END FROM users WHERE id = 1")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("case without else = %v", res.Rows[0][0])
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	res := q(t, "SELECT id, name, age FROM users ORDER BY id")
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sch.String() != res.Sch.String() {
		t.Errorf("schema roundtrip: %q vs %q", back.Sch, res.Sch)
	}
	if len(back.Rows) != len(res.Rows) {
		t.Fatalf("rows: %d vs %d", len(back.Rows), len(res.Rows))
	}
	for i := range back.Rows {
		for j := range back.Rows[i] {
			if !value.Equal(back.Rows[i][j], res.Rows[i][j]) {
				t.Errorf("cell (%d,%d) differs", i, j)
			}
		}
	}
	// Truncation detection.
	for _, cut := range []int{0, 2, len(blob) / 2} {
		if _, err := DecodeResult(blob[:cut]); err == nil {
			t.Errorf("truncated wire blob at %d accepted", cut)
		}
	}
}

func mustParse(t *testing.T, sql string) *ast.Select {
	t.Helper()
	sel, err := parser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestPositionalGroupAndOrder(t *testing.T) {
	res := q(t, "SELECT status, count(*) FROM orders GROUP BY 1 ORDER BY 2 DESC, 1")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "OK" || res.Rows[0][1].AsInt() != 4 {
		t.Errorf("first group = %v", res.Rows[0])
	}
	res = q(t, "SELECT name FROM users ORDER BY 1")
	if len(res.Rows) != 4 || res.Rows[0][0].AsString() != "alice" || res.Rows[3][0].AsString() != "dave" {
		t.Errorf("ORDER BY 1 = %v", res.Rows)
	}
	res = q(t, "SELECT count(*), country FROM users GROUP BY 2")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 2 || res.Rows[0][1].AsString() != "DE" {
		t.Errorf("GROUP BY 2 = %v", res.Rows)
	}
	// An integer literal that is not a valid position is an error, not a
	// constant key that leaves the rows unsorted or in one group.
	for sql, want := range map[string]string{
		"SELECT name FROM users ORDER BY 9":                 "exec: ORDER BY position 9 is not in the select list",
		"SELECT name FROM users ORDER BY 0, name":           "exec: ORDER BY position 0 is not in the select list",
		"SELECT count(*) FROM users GROUP BY 7":             "exec: GROUP BY position 7 is not in the select list",
		"SELECT country, count(*) FROM users GROUP BY 1, 3": "exec: GROUP BY position 3 is not in the select list",
	} {
		for _, batch := range []int{0, 1, 7} {
			if _, err := RunBatched(mustParse(t, sql), testCatalog(), nil, batch); err == nil || err.Error() != want {
				t.Errorf("%s (batch %d): error %v, want %q", sql, batch, err, want)
			}
		}
	}
}

// TestKeysWithNULBytes pins that multi-column keys are compared column by
// column. The rows a = ("a\x00\x03b", "c") and b = ("a", "b\x00\x03c") differ in
// both columns, but their HashKeys joined by "\x00" — the key the executor used
// to build — are the same string.
func TestKeysWithNULBytes(t *testing.T) {
	sch := func(c1, c2 string) *schema.Schema {
		return schema.New(schema.Col(c1, value.KindString), schema.Col(c2, value.KindString))
	}
	ra := schema.Row{value.Str("a\x00\x03b"), value.Str("c")}
	rb := schema.Row{value.Str("a"), value.Str("b\x00\x03c")}
	cat := memCatalog{
		"a":    &MemRelation{Sch: sch("x", "y"), Rows: []schema.Row{ra}},
		"b":    &MemRelation{Sch: sch("p", "q"), Rows: []schema.Row{rb}},
		"both": &MemRelation{Sch: sch("x", "y"), Rows: []schema.Row{ra, rb, ra}},
	}
	for _, batch := range []int{0, 1} {
		count := func(sql string) int64 {
			return mustRun(t, sql, cat, nil, batch).Rows[0][0].AsInt()
		}
		if n := count("SELECT count(*) FROM a, b WHERE x = p AND y = q"); n != 0 {
			t.Errorf("batch %d: inner join matched %d rows, want 0", batch, n)
		}
		if n := count("SELECT count(p) FROM a LEFT OUTER JOIN b ON x = p AND y = q"); n != 0 {
			t.Errorf("batch %d: left join matched %d rows, want 0", batch, n)
		}
		if n := count("SELECT count(*) FROM a WHERE EXISTS (SELECT * FROM b WHERE p = x AND q = y)"); n != 0 {
			t.Errorf("batch %d: correlated EXISTS matched %d rows, want 0", batch, n)
		}
		groups := mustRun(t, "SELECT x, y, count(*) FROM both GROUP BY x, y", cat, nil, batch)
		if len(groups.Rows) != 2 || groups.Rows[0][2].AsInt() != 2 || groups.Rows[1][2].AsInt() != 1 {
			t.Errorf("batch %d: GROUP BY x, y = %v, want two groups of 2 and 1", batch, groups.Rows)
		}
		if distinct := mustRun(t, "SELECT DISTINCT x, y FROM both", cat, nil, batch); len(distinct.Rows) != 2 {
			t.Errorf("batch %d: DISTINCT kept %d rows, want 2", batch, len(distinct.Rows))
		}
	}
}
