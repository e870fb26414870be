package parser

import (
	"reflect"
	"testing"

	"ironsafe/internal/sql/ast"
)

// FuzzParse checks that the parser is total: arbitrary input may be rejected
// but must never panic or hang. Every SELECT it accepts prints as SQL that
// parses back to an equal tree.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT a, b FROM t WHERE x > 1 GROUP BY a HAVING count(*) > 2 ORDER BY b DESC LIMIT 5",
		"select * from a left outer join b on a.x = b.x",
		"SELECT (SELECT min(y) FROM u WHERE u.k = t.k) FROM t",
		"INSERT INTO t (a,b) VALUES (1, 'x''y'), (NULL, date '1995-01-01')",
		"UPDATE t SET a = a + 1 WHERE b IN ('p', 'q')",
		"CREATE TABLE t (a INTEGER, b DECIMAL(15,2), c VARCHAR(10))",
		"DELETE FROM t WHERE NOT EXISTS (SELECT * FROM u)",
		"sel ect; '",
		"SELECT CASE WHEN a BETWEEN 1 AND 2 THEN substring(s from 1 for 2) END FROM t",
		"SELECT extract(year from d) - interval '3' month FROM t",
		"(((((",
		"SELECT a FROM t WHERE s LIKE '%\\'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Must not panic.
		stmt, err := Parse(input)
		if err == nil && stmt == nil {
			t.Error("nil statement without error")
		}
		if sel, ok := stmt.(*ast.Select); ok {
			if back, err := ParseSelect(sel.String()); err != nil || !reflect.DeepEqual(back, sel) {
				t.Errorf("%q prints as %q, which does not parse back to the same tree: %v", input, sel.String(), err)
			}
		}
	})
}
