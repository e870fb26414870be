package ast_test

import (
	"reflect"
	"testing"

	"ironsafe/internal/sql/parser"
	"ironsafe/internal/tpch"
)

// TestPrintParseRoundTrip: a SELECT prints as SQL that parses back to an
// equal tree — the rewrite the monitor signs and the fragments the
// partitioner ships are printed, and the engine runs what the parser reads.
func TestPrintParseRoundTrip(t *testing.T) {
	sqls := []string{
		"SELECT a AS x, t.b y FROM t AS u WHERE a > 1",
		"SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id JOIN c ON c.k = b.k, d",
		"SELECT DISTINCT a FROM t ORDER BY a DESC, b LIMIT 0",
		"SELECT d.n FROM (SELECT name AS n FROM t WHERE x IN (1, 2)) d",
		"SELECT '', 'it''s', -a, -1, -2.5, 7.0, 100.00, 1 - -1 FROM t LIMIT 10",
		"SELECT count(*), sum(DISTINCT a) FROM t GROUP BY b, c HAVING count(*) > 2",
		"SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.k = t.k) AND b NOT IN (SELECT c FROM v)",
		"SELECT (SELECT max(x) FROM u), a IS NOT NULL, a NOT BETWEEN 1 AND 2, a NOT LIKE 'x%' FROM t",
	}
	for n := 1; n <= 22; n++ {
		sqls = append(sqls, tpch.Queries[n])
	}
	for _, sql := range sqls {
		sel, err := parser.ParseSelect(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		back, err := parser.ParseSelect(sel.String())
		if err != nil || !reflect.DeepEqual(back, sel) {
			t.Errorf("%q prints as\n%q\nwhich parses to another tree (%v)", sql, sel.String(), err)
		}
	}
}
