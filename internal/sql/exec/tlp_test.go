package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestTernaryLogicPartitioning is a check of query results that needs no
// second implementation to compare with: under SQL's three-valued logic every
// row of Q makes a predicate p exactly one of TRUE, FALSE and NULL, so
//
//	rows(Q) = rows(Q WHERE p) ⊎ rows(Q WHERE NOT p) ⊎ rows(Q WHERE p IS NULL)
//
// as multisets, whatever p is. The predicates are seeded compositions of the
// kernel shapes (comparison, BETWEEN, IN-list, LIKE, arithmetic, NOT, AND/OR),
// of the nodes eval alone serves (IS NULL, /, %, ||, date ± interval, CASE,
// SUBSTRING) and of EXISTS / IN / scalar subqueries, correlated and not, over
// the small catalog of exec_test.go, whose users.age holds a NULL and whose
// orders name a user that does not exist. A filter that drops a NULL row it
// should keep, a kernel that disagrees with eval about a row, or a probe that
// answers for the wrong outer row breaks the equation.
func TestTernaryLogicPartitioning(t *testing.T) {
	userAtoms := []string{
		"age > 30", "age <= 28", "28 < age", "age BETWEEN 28 AND 40", "age NOT BETWEEN 30 AND 50",
		"age IN (28, 45)", "age IN (34, NULL)", "age NOT IN (34, NULL)", "age IS NULL", "age IS NOT NULL",
		"name LIKE 'a%'", "name NOT LIKE '%o%'", "country = 'DE'", "country <> 'PT'", "country < name",
		"id + age > 36", "age * 2 < 70", "id - 1 = 0", "age / 2 > 15", "age % 2 = 0", "id = 2.0",
		"name || country = 'bobPT'", "substring(name from 1 for 1) = 'c'",
		"CASE WHEN age > 40 THEN true WHEN id = 2 THEN false END",
		"EXISTS (SELECT 1 FROM orders WHERE uid = id)",
		"NOT EXISTS (SELECT 1 FROM orders WHERE uid = id AND status = 'OK')",
		"EXISTS (SELECT 1 FROM orders WHERE uid = id AND amount > age)",
		"id IN (SELECT uid FROM orders)",
		"id NOT IN (SELECT uid FROM orders WHERE status = 'OK')",
		"age IN (SELECT qty + 30 FROM items)",
		"age - 30 NOT IN (SELECT age - 30 FROM users WHERE id > 2)",
		"id IN (SELECT uid FROM orders WHERE amount > age)",
		"id + (SELECT 0) IN (SELECT uid FROM orders)",
		"age > (SELECT avg(amount) FROM orders WHERE uid = id)",
		"age < (SELECT max(amount) FROM orders)",
		"(SELECT count(*) FROM orders WHERE uid = id) >= 2",
	}
	orderAtoms := []string{
		"amount > 50", "amount BETWEEN 20 AND 75", "status = 'OK'", "status LIKE 'P%'", "uid <= 2",
		"odate >= date '1995-02-10'", "odate < date '1995-01-10' + interval '1' year",
		"odate - interval '1' month > date '1995-01-31'", "amount * 2 - 1 > uid + 100",
		"extract(year from odate) = 1996",
		"uid IN (SELECT id FROM users WHERE age > 30)",
		"uid NOT IN (SELECT id FROM users WHERE age IS NULL)",
		"uid IN (SELECT age - 30 FROM users)",
		"EXISTS (SELECT 1 FROM items WHERE items.oid = orders.oid AND qty > 1)",
		"amount > (SELECT avg(amount) FROM orders)",
		"amount >= (SELECT max(qty) * 10 FROM items WHERE items.oid = orders.oid)",
	}
	queries := []struct {
		sql, glue string
		atoms     []string
	}{
		{"SELECT id, name, country, age FROM users", " WHERE ", userAtoms},
		{"SELECT oid, uid, amount, odate, status FROM orders", " WHERE ", orderAtoms},
		{"SELECT name, age, orders.oid, amount FROM users, orders WHERE id = uid", " AND ", append(append([]string{}, userAtoms...), orderAtoms...)},
		{"SELECT country, orders.oid, status FROM users LEFT OUTER JOIN orders ON id = uid", " WHERE ", userAtoms},
	}
	rng := rand.New(rand.NewSource(2))
	var compose func(atoms []string, depth int) string
	compose = func(atoms []string, depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return atoms[rng.Intn(len(atoms))]
		}
		l, r := compose(atoms, depth-1), compose(atoms, depth-1)
		switch rng.Intn(3) {
		case 0:
			return "(" + l + ") AND (" + r + ")"
		case 1:
			return "(" + l + ") OR (" + r + ")"
		}
		return "NOT (" + l + ")"
	}
	cat := testCatalog()
	rows := func(sql string, batch int) []string {
		t.Helper()
		res, err := RunBatched(mustParse(t, sql), cat, nil, batch)
		if err != nil {
			t.Fatalf("%s (batch %d): %v", sql, batch, err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = fmt.Sprint(r)
		}
		return out
	}
	for n := 0; n < 200; n++ {
		q := queries[n%len(queries)]
		p := compose(q.atoms, 2)
		for _, batch := range []int{1, 7, DefaultBatchRows} {
			whole := rows(q.sql, batch)
			var parts []string
			for _, part := range []string{"(" + p + ")", "NOT (" + p + ")", "(" + p + ") IS NULL"} {
				parts = append(parts, rows(q.sql+q.glue+part, batch)...)
			}
			sort.Strings(whole)
			sort.Strings(parts)
			if strings.Join(whole, "\n") != strings.Join(parts, "\n") {
				t.Errorf("batch %d: %s partitioned by %s:\n%d rows in the parts\n%s\nwant the query's %d\n%s",
					batch, q.sql, p, len(parts), strings.Join(parts, "\n"), len(whole), strings.Join(whole, "\n"))
			}
		}
	}
}
