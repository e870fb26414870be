package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ironsafe/internal/schema"
	"ironsafe/internal/value"
)

// tri is a SQL truth value: -1 false, 0 unknown, 1 true.
type tri int

func triOf(b bool) tri {
	if b {
		return 1
	}
	return -1
}

// valEq is SQL equality as the engine specifies it: unknown with a NULL on
// either side, else equal HashKeys.
func valEq(a, b value.Value) tri {
	if a.IsNull() || b.IsNull() {
		return 0
	}
	return triOf(a.HashKey() == b.HashKey())
}

// intLess is a.v < b.v over nullable Int columns.
func intLess(a, b value.Value) tri {
	if a.IsNull() || b.IsNull() {
		return 0
	}
	return triOf(a.AsInt() < b.AsInt())
}

// nullable replaces about one value in eight of column c with NULL.
func nullable(rng *rand.Rand, rel *MemRelation, c int) {
	for _, r := range rel.Rows {
		if rng.Intn(8) == 0 {
			r[c] = value.Null()
		}
	}
}

// TestSubqueryMatchesNestedLoop checks the subquery kernels — EXISTS, NOT
// EXISTS, correlated and uncorrelated IN and NOT IN, a scalar subquery over an
// aggregate — against nested loops written here, rows and their order, at the
// batch size that never reduces a scan and at two that do: over tables o, i and
// j of (id, k1, k2, v) with NULLs in every column and keys that mix Int with
// Float, with and without a residual, a small outer over a large inner (the
// outer rows' keys reduce the inner scan; an uncorrelated IN set reduces the
// outer scan) and the reverse (the reducer sits out).
func TestSubqueryMatchesNestedLoop(t *testing.T) {
	pools := [][]value.Value{
		{value.Int(1), value.Int(2), value.Int(3)},
		{value.Null(), value.Int(1), value.Int(2), value.Int(3), value.Int(4), value.Int(5), value.Int(6), value.Int(7), value.Int(8), value.Int(9)},
		{value.Int(1), value.Float(1), value.Float(2.5), value.Float(3), value.Int(3), value.Int(4), value.Null()},
	}
	sizes := []int{0, 1, 6, 40, 130}
	rng := rand.New(rand.NewSource(19))
	outerReduced, setReduced, kept := 0, 0, 0
	for iter := 0; iter < 300; iter++ {
		cat := memCatalog{}
		for _, name := range []string{"o", "i", "j"} {
			rel := semiRelation(rng, sizes[rng.Intn(len(sizes))], pools[rng.Intn(len(pools))], pools[rng.Intn(len(pools))])
			nullable(rng, rel, 0)
			nullable(rng, rel, 3)
			cat[name] = rel
		}
		ocut, icut := int64(rng.Intn(11)), int64(rng.Intn(11))
		twoKeys, residual, filtered := rng.Intn(3) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0

		// corr is the inner WHERE clause shared by the correlated shapes, and
		// cands the inner rows it passes for outer row o.
		corr := "i.k1 = o.k1"
		if twoKeys {
			corr += " AND o.k2 = i.k2"
		}
		if residual {
			corr += " AND i.v < o.v"
		}
		if filtered {
			corr += fmt.Sprintf(" AND i.v < %d", icut)
		}
		innerOK := func(i schema.Row) bool { return !filtered || (!i[3].IsNull() && i[3].AsInt() < icut) }
		cands := func(o schema.Row) (out []schema.Row) {
			for _, i := range cat["i"].Rows {
				if valEq(i[1], o[1]) == 1 && (!twoKeys || valEq(o[2], i[2]) == 1) && (!residual || intLess(i[3], o[3]) == 1) && innerOK(i) {
					out = append(out, i)
				}
			}
			return out
		}
		// in is x IN (vals) in three-valued logic.
		in := func(x value.Value, vals []value.Value) tri {
			out := tri(-1)
			for _, v := range vals {
				if e := valEq(x, v); e == 1 {
					return 1
				} else if e == 0 {
					out = 0
				}
			}
			if x.IsNull() && len(vals) > 0 {
				return 0
			}
			return out
		}
		col := func(rows []schema.Row, c int) (out []value.Value) {
			for _, r := range rows {
				out = append(out, r[c])
			}
			return out
		}
		var allInner []schema.Row
		for _, i := range cat["i"].Rows {
			if innerOK(i) {
				allInner = append(allInner, i)
			}
		}
		uncorr := "SELECT i.k1 FROM i"
		if filtered {
			uncorr += fmt.Sprintf(" WHERE i.v < %d", icut)
		}

		existsJoined := func(o schema.Row) tri {
			for _, i := range cands(o) {
				for _, j := range cat["j"].Rows {
					if valEq(j[1], i[2]) == 1 {
						return 1
					}
				}
			}
			return -1
		}
		shapes := []struct {
			name, pred string
			keep       func(o schema.Row) tri
		}{
			{"exists", "EXISTS (SELECT * FROM i WHERE " + corr + ")", func(o schema.Row) tri { return triOf(len(cands(o)) > 0) }},
			{"not exists", "NOT EXISTS (SELECT * FROM i WHERE " + corr + ")", func(o schema.Row) tri { return triOf(len(cands(o)) == 0) }},
			{"exists over a join", "EXISTS (SELECT * FROM i, j WHERE " + corr + " AND j.k1 = i.k2)", existsJoined},
			{"exists over a join, keyed entry second", "EXISTS (SELECT * FROM j, i WHERE " + corr + " AND j.k1 = i.k2)", existsJoined},
			{"correlated in", "o.k2 IN (SELECT i.k2 FROM i WHERE " + corr + ")", func(o schema.Row) tri { return in(o[2], col(cands(o), 2)) }},
			{"correlated not in", "o.k2 NOT IN (SELECT i.k2 FROM i WHERE " + corr + ")", func(o schema.Row) tri { return -in(o[2], col(cands(o), 2)) }},
			{"uncorrelated in", "o.k1 IN (" + uncorr + ")", func(o schema.Row) tri { return in(o[1], col(allInner, 1)) }},
			{"uncorrelated not in", "o.k1 NOT IN (" + uncorr + ")", func(o schema.Row) tri { return -in(o[1], col(allInner, 1)) }},
			{"scalar sum", "o.v < (SELECT sum(i.v) FROM i WHERE " + corr + ")", func(o schema.Row) tri {
				sum := value.Null()
				for _, i := range cands(o) {
					if !i[3].IsNull() {
						if sum.IsNull() {
							sum = value.Int(0)
						}
						sum = value.Int(sum.AsInt() + i[3].AsInt())
					}
				}
				return intLess(o[3], sum)
			}},
			{"scalar count", "(SELECT count(*) FROM i WHERE " + corr + ") = 2", func(o schema.Row) tri { return triOf(len(cands(o)) == 2) }},
		}
		for _, sh := range shapes {
			sql := fmt.Sprintf("SELECT o.id, o.k1, o.k2, o.v FROM o WHERE o.v < %d AND %s", ocut, sh.pred)
			var want []schema.Row
			for _, o := range cat["o"].Rows {
				if !o[3].IsNull() && o[3].AsInt() < ocut && sh.keep(o) == 1 {
					want = append(want, o)
				}
			}
			kept += len(want)
			for _, batch := range []int{1, 7, DefaultBatchRows} {
				res, tr := runTraced(t, sql, cat, batch)
				if !sameRows(res.Rows, want) {
					t.Fatalf("case %d %s: %s (batch=%d): %d rows, want %d\n%s", iter, sh.name, sql, batch, len(res.Rows), len(want), tr)
				}
				if batch == 1 && strings.Contains(tr, "semi-join") {
					t.Fatalf("case %d %s: row mode reduced a scan:\n%s", iter, sh.name, tr)
				}
				outerReduced += strings.Count(tr, "from <outer>")
				setReduced += strings.Count(tr, "from IN (<subquery>)")
			}
		}
	}
	t.Logf("%d inner scans reduced by outer keys, %d outer scans by an IN set, %d rows kept", outerReduced, setReduced, kept)
	if outerReduced < 200 || setReduced < 50 || kept < 2000 {
		t.Errorf("the cases barely exercise reduction: %d inner scans, %d outer scans reduced, %d rows kept", outerReduced, setReduced, kept)
	}
}

// TestSubqueryOuterReferenceIsNotMemoized: a subquery whose WHERE clause
// names no outer column may still read the outer row — in its select list, in
// HAVING, in ORDER BY, in a subquery nested in it — and is then a different
// statement for every outer row. Each shape here answers differently when the
// first outer row's result is kept for the rest.
func TestSubqueryOuterReferenceIsNotMemoized(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{"SELECT name FROM users u WHERE id IN (SELECT u.age - 26 FROM orders)", "bob"},
		{"SELECT name FROM users u WHERE u.id = u.age - 26", "bob"},
		{"SELECT name FROM users u WHERE EXISTS (SELECT 1 FROM orders HAVING count(*) = u.id + 1)", "dave"},
		{"SELECT name FROM users u WHERE id IN (SELECT uid FROM orders ORDER BY (uid - u.id) * (uid - u.id), oid LIMIT 1)", "alice bob carol"},
		{"SELECT name FROM users u WHERE id IN (SELECT uid FROM orders WHERE oid IN (SELECT oid FROM items WHERE qty = u.id))", "alice carol"},
		{"SELECT name FROM users u WHERE (SELECT max(u.age) FROM orders) > 40", "carol"},
	} {
		for _, batch := range []int{1, 7, DefaultBatchRows} {
			res, tr := runTraced(t, tc.sql, testCatalog(), batch)
			var got []string
			for _, r := range res.Rows {
				got = append(got, r[0].AsString())
			}
			if strings.Join(got, " ") != tc.want {
				t.Errorf("%s (batch=%d): %v, want %s\n%s", tc.sql, batch, got, tc.want, tr)
			}
		}
	}
	// What reads no outer row is still run once.
	if _, tr := runTraced(t, "SELECT name FROM users u WHERE id IN (SELECT uid AS x FROM orders o GROUP BY uid HAVING count(*) > 1 ORDER BY x)", testCatalog(), 0); strings.Count(tr, "scan orders") != 1 {
		t.Errorf("an uncorrelated subquery should run once:\n%s", tr)
	}
}

// TestInSubqueryArity: IN wants a one-column subquery, and says so before
// anything runs, whichever way the subquery would have been evaluated.
func TestInSubqueryArity(t *testing.T) {
	for _, sql := range []string{
		"SELECT name FROM users WHERE id IN (SELECT uid, oid FROM orders)",
		"SELECT name FROM users u WHERE id IN (SELECT uid, oid FROM orders o WHERE o.uid = u.id)",
		"SELECT name FROM users WHERE id NOT IN (SELECT * FROM orders)",
		"SELECT name FROM users WHERE age > 100 AND id IN (SELECT uid, oid FROM orders)",
	} {
		for _, batch := range []int{1, DefaultBatchRows} {
			_, err := RunBatched(mustParse(t, sql), testCatalog(), nil, batch)
			if err == nil || err.Error() != "exec: IN subquery must select exactly one column" {
				t.Errorf("%s (batch=%d): %v", sql, batch, err)
			}
		}
	}
}

// TestInSubqueryReductionKeepsLaziness: the set of an uncorrelated IN conjunct is
// built when the scan it reduces starts, ahead of the filter that asks for it.
// If that fails the scan goes unreduced and the statement fails where it
// always did — in the filter, if a row gets there — and a subquery that ran
// for the scan is not run again for the filter.
func TestInSubqueryReductionKeepsLaziness(t *testing.T) {
	body := "(SELECT uid FROM orders WHERE amount / (oid - oid) > 1)"
	if _, err := RunBatched(mustParse(t, "SELECT uid FROM orders WHERE amount / (oid - oid) > 1"), testCatalog(), nil, 0); err == nil {
		t.Fatal("the body should fail on its own")
	}
	for _, batch := range []int{1, 7, DefaultBatchRows} {
		res, tr := runTraced(t, "SELECT name FROM users WHERE age > 100 AND id IN "+body, testCatalog(), batch)
		if len(res.Rows) != 0 || strings.Contains(tr, "semi-join") {
			t.Errorf("batch=%d: no row reaches the filter, so nothing fails and nothing is reduced; %d rows\n%s", batch, len(res.Rows), tr)
		}
		_, err := RunBatched(mustParse(t, "SELECT name FROM users WHERE id IN "+body), testCatalog(), nil, batch)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("batch=%d: a row reaches the filter: want the body's failure, got %v", batch, err)
		}
	}
	res, tr := runTraced(t, "SELECT name FROM users, items WHERE id IN (SELECT uid FROM orders WHERE amount > 60) AND users.id + 99 = items.oid", testCatalog(), 0)
	if len(res.Rows) != 2 || strings.Count(tr, "scan orders") != 1 ||
		!strings.Contains(tr, "semi-join reduce on [id] from IN (<subquery>): 4 -> 2 rows (4 probed)") ||
		!strings.Contains(tr, "semi-join reduce on [items.oid] from users: 4 -> 2 rows (4 probed)") {
		t.Errorf("the set should reduce users' scan, users then items', and the body run once; %d rows\n%s", len(res.Rows), tr)
	}
}
