package monitor

import (
	"errors"
	"reflect"
	"testing"

	"ironsafe/internal/policy"
	"ironsafe/internal/sql/ast"
	"ironsafe/internal/sql/parser"
)

// FuzzAuthorize drives the trust anchor's front door with a random statement
// and access date under the examples/gdpr-sharing policy, as the producer (no
// row filters) and as the consumer (two). Authorize must not panic and fails
// only on a statement that does not parse, a policy error or a typed denial.
// Without filters the statement runs as sent; with them, the rewrite parses
// to a SELECT whose top-level conjuncts end with exactly those filters.
func FuzzAuthorize(f *testing.F) {
	for _, seed := range [][2]string{
		{"SELECT name FROM passengers --", "1995-06-17"},
		{"SELECT name FROM passengers -- '\nWHERE id > 0 -- '", "1995-06-17"},
		{"SELECT name FROM passengers", "1995-06-17' OR date '1995-01-01' = date '1995-01-01"},
		{"SELECT name FROM passengers WHERE flight = 'IS101' OR id > 2 ORDER BY id LIMIT 3", "1995-06-17"},
		{"SELECT flight, count(*) FROM passengers GROUP BY flight HAVING count(*) > 1", ""},
		{"SELECT d.name FROM (SELECT name FROM passengers) d", "1995-06-17"},
		{"UPDATE passengers SET expiry = date '2999-01-01'", "1995-06-17"},
		{"INSERT INTO passengers VALUES (5, 'eve', 'IS303', '1995-06-22', '1990-01-01', 3)", "1995-06-17"},
	} {
		f.Add(seed[0], seed[1])
	}
	r := newRig(f)
	r.attestHost(f)
	r.attestStorage(f)
	pol := policy.MustParse("read :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, expiry) & reuseMap(reuse_map) & logUpdate(sharing, K, Q)\n" +
		"write :- sessionKeyIs(Ka)")
	r.mon.SetAccessPolicy("db", pol)
	r.mon.RegisterService("Kb", 1)
	f.Fuzz(func(t *testing.T, sql, date string) {
		stmt, parseErr := parser.Parse(sql)
		for _, key := range []string{"Ka", "Kb"} {
			auth, err := r.mon.Authorize(AuthRequest{Database: "db", ClientKey: key, HostID: "host-1", SQL: sql, AccessDate: date})
			if err != nil {
				if parseErr == nil && !errors.Is(err, ErrDenied) && !errors.Is(err, policy.ErrAccessDate) {
					t.Fatalf("%s: %q (access date %q): untyped error %v", key, sql, date, err)
				}
				continue
			}
			r.mon.EndSession(auth.SessionID)
			_, eff, _ := pol.Evaluate(permissionFor(stmt), policy.Env{SessionKey: key, AccessDate: date, ServiceBit: 1})
			if len(eff.RowFilters) == 0 {
				if auth.RewrittenSQL != sql {
					t.Fatalf("%s: %q runs as %q with no filter to apply", key, sql, auth.RewrittenSQL)
				}
				continue
			}
			sel, err := parser.ParseSelect(auth.RewrittenSQL)
			if err != nil {
				t.Fatalf("%s: %q rewritten to %q: %v", key, sql, auth.RewrittenSQL, err)
			}
			conj := ast.SplitConjuncts(sel.Where)
			if n := len(eff.RowFilters); len(conj) < n || !reflect.DeepEqual(conj[len(conj)-n:], eff.RowFilters) {
				t.Fatalf("%s: %q rewritten to %q: its conjuncts do not end with the filters", key, sql, auth.RewrittenSQL)
			}
		}
	})
}
