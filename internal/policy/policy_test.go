package policy

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestParseSimpleRule(t *testing.T) {
	p, err := Parse("read :- sessionKeyIs(Ka)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	pred, ok := p.Rules["read"].(*Pred)
	if !ok || pred.Name != "sessionKeyIs" || pred.Args[0] != "Ka" {
		t.Errorf("rule = %v", p.Rules["read"])
	}
}

func TestParsePaperExamples(t *testing.T) {
	srcs := []string{
		"read ::= sessionKeyIs(Ka)\nwrite ::= sessionKeyIs(Kb)\nexec ::= fwVersionStorage(latest) & fwVersionHost(latest)",
		"read :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, expiry)",
		"read :- reuseMap(reuse_map)",
		"read :- logUpdate(l, K, Q)",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("paper example %q: %v", src, err)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	p := MustParse("read :- sessionKeyIs(a) | sessionKeyIs(b) & le(T, exp)")
	or, ok := p.Rules["read"].(*Or)
	if !ok {
		t.Fatalf("top = %T (| should bind loosest)", p.Rules["read"])
	}
	if _, ok := or.R.(*And); !ok {
		t.Errorf("right = %T", or.R)
	}
	// Parentheses override.
	p = MustParse("read :- (sessionKeyIs(a) | sessionKeyIs(b)) & le(T, exp)")
	if _, ok := p.Rules["read"].(*And); !ok {
		t.Errorf("parenthesized top = %T", p.Rules["read"])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"read sessionKeyIs(a)",
		"grant :- sessionKeyIs(a)",
		"read :- frobnicate(a)",
		"read :- sessionKeyIs",
		"read :- sessionKeyIs(a, b)",
		"read :- sessionKeyIs(a) &",
		"read :- (sessionKeyIs(a)",
		"read :- sessionKeyIs('unterminated)",
		"read :- le(T)",
		"read :- sessionKeyIs(a)\nread :- sessionKeyIs(b)",
		"read :- logUpdate()",
		// Row-filter columns are single SQL identifiers.
		"read :- le(T, 'expiry OR 1 = 1')",
		"read :- reuseMap(reuse-map)",
		"read :- reuseMap(date)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted bad policy %q", src)
		}
	}
}

func TestCommentsAndSeparators(t *testing.T) {
	p, err := Parse("read :- sessionKeyIs(a) -- only A\n; write :- sessionKeyIs(b)")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 2 {
		t.Errorf("rules = %d", len(p.Rules))
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := "read :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, expiry)\nexec :- fwVersionHost(latest)"
	p := MustParse(src)
	rendered := p.String()
	p2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("reparse %q: %v", rendered, err)
	}
	if p2.String() != rendered {
		t.Errorf("unstable rendering:\n%s\nvs\n%s", rendered, p2.String())
	}
}

func TestEvaluateSessionKey(t *testing.T) {
	p := MustParse("read :- sessionKeyIs(Ka)\nwrite :- sessionKeyIs(Kb)")
	ok, _, err := p.Evaluate("read", Env{SessionKey: "Ka"})
	if err != nil || !ok {
		t.Errorf("Ka read = %v, %v", ok, err)
	}
	ok, _, _ = p.Evaluate("write", Env{SessionKey: "Ka"})
	if ok {
		t.Error("Ka granted write")
	}
	ok, _, _ = p.Evaluate("exec", Env{SessionKey: "Ka"})
	if ok {
		t.Error("missing rule granted")
	}
}

func TestEvaluateLocationsAndVersions(t *testing.T) {
	p := MustParse("exec :- hostLocIs(EU) & storageLocIs(EU) & fwVersionStorage('3.4') & fwVersionHost(latest)")
	env := Env{HostLoc: "EU", StorageLoc: "EU", HostFW: "2.1", StorageFW: "3.4", LatestHostFW: "2.1", LatestStorageFW: "3.4"}
	ok, _, err := p.Evaluate("exec", env)
	if err != nil || !ok {
		t.Errorf("compliant env rejected: %v, %v", ok, err)
	}
	env.StorageFW = "3.3"
	if ok, _, _ := p.Evaluate("exec", env); ok {
		t.Error("downlevel storage firmware accepted")
	}
	env.StorageFW = "3.5" // newer than required is fine
	if ok, _, _ := p.Evaluate("exec", env); !ok {
		t.Error("newer firmware rejected")
	}
	env.HostFW = "2.0" // below latest
	if ok, _, _ := p.Evaluate("exec", env); ok {
		t.Error("stale host firmware accepted against 'latest'")
	}
	env.HostFW = "2.1"
	env.HostLoc = "US"
	if ok, _, _ := p.Evaluate("exec", env); ok {
		t.Error("wrong location accepted")
	}
}

func TestEvaluateOrTakesSatisfyingBranchEffects(t *testing.T) {
	p := MustParse("read :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, expiry)")
	// Ka branch: no effects.
	ok, eff, err := p.Evaluate("read", Env{SessionKey: "Ka", AccessDate: "1995-06-17"})
	if err != nil || !ok || len(eff.RowFilters) != 0 {
		t.Errorf("Ka = %v, %+v, %v", ok, eff, err)
	}
	// Kb branch: expiry filter attaches.
	ok, eff, err = p.Evaluate("read", Env{SessionKey: "Kb", AccessDate: "1995-06-17"})
	if err != nil || !ok {
		t.Fatalf("Kb = %v, %v", ok, err)
	}
	if len(eff.RowFilters) != 1 || eff.RowFilters[0].String() != "(expiry >= date '1995-06-17')" {
		t.Errorf("filters = %v", eff.RowFilters)
	}
}

func TestEvaluateReuseMap(t *testing.T) {
	p := MustParse("read :- reuseMap(reuse_map)")
	ok, eff, err := p.Evaluate("read", Env{ServiceBit: 3})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(eff.RowFilters) != 1 || eff.RowFilters[0].String() != "((reuse_map % 16) >= 8)" {
		t.Errorf("filters = %v", eff.RowFilters)
	}
	if _, _, err := p.Evaluate("read", Env{ServiceBit: 99}); err == nil {
		t.Error("out-of-range bit accepted")
	}
}

func TestEvaluateLogUpdate(t *testing.T) {
	p := MustParse("read :- logUpdate(sharing_log, K, Q)")
	ok, eff, err := p.Evaluate("read", Env{})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(eff.LogActions) != 1 || eff.LogActions[0].Log != "sharing_log" {
		t.Errorf("log actions = %+v", eff.LogActions)
	}
	if len(eff.LogActions[0].Fields) != 2 {
		t.Errorf("fields = %v", eff.LogActions[0].Fields)
	}
}

func TestEvaluateNot(t *testing.T) {
	p := MustParse("read :- !sessionKeyIs(banned)")
	if ok, _, _ := p.Evaluate("read", Env{SessionKey: "alice"}); !ok {
		t.Error("non-banned rejected")
	}
	if ok, _, _ := p.Evaluate("read", Env{SessionKey: "banned"}); ok {
		t.Error("banned accepted")
	}
	// Negating an effect predicate is an error.
	p = MustParse("read :- !le(T, expiry)")
	if _, _, err := p.Evaluate("read", Env{AccessDate: "1995-01-01"}); err == nil {
		t.Error("negated effect predicate accepted")
	}
}

func TestLeRequiresAccessDate(t *testing.T) {
	p := MustParse("read :- le(T, expiry)")
	for _, date := range []string{"", "1995-6-17", "1995-06-17' OR date '1995-01-01' = date '1995-01-01"} {
		if _, _, err := p.Evaluate("read", Env{AccessDate: date}); !errors.Is(err, ErrAccessDate) {
			t.Errorf("access date %q: err = %v, want ErrAccessDate", date, err)
		}
	}
}

func TestLeColumnToColumn(t *testing.T) {
	p := MustParse("read :- le(created, expiry)")
	ok, eff, err := p.Evaluate("read", Env{})
	if err != nil || !ok || len(eff.RowFilters) != 1 {
		t.Fatalf("col-col le: %v %v %v", ok, eff, err)
	}
	if !strings.Contains(eff.RowFilters[0].String(), "created <= expiry") {
		t.Errorf("filter = %q", eff.RowFilters[0])
	}
}

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"3.4", "3.4", 0}, {"3.5", "3.4", 1}, {"3.4", "3.10", -1},
		{"2", "2.0", 0}, {"2.0.1", "2", 1}, {"1.9", "2.0", -1},
	}
	for _, tc := range cases {
		if got := CompareVersions(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareVersions(%s, %s) = %d", tc.a, tc.b, got)
		}
	}
}

func TestPredicates(t *testing.T) {
	p := MustParse("read :- sessionKeyIs(a) & le(T, exp)\nexec :- hostLocIs(EU)")
	preds := p.Predicates()
	if len(preds) != 3 {
		t.Errorf("predicates = %d", len(preds))
	}
}

// TestRandomPolicyRoundTripProperty generates random policy trees, renders
// them, reparses, and requires identical re-rendering (parse . render = id).
func TestRandomPolicyRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	preds := []func() string{
		func() string { return fmt.Sprintf("sessionKeyIs(K%d)", rng.Intn(5)) },
		func() string { return fmt.Sprintf("hostLocIs(L%d)", rng.Intn(3)) },
		func() string { return fmt.Sprintf("storageLocIs(L%d)", rng.Intn(3)) },
		func() string { return fmt.Sprintf("fwVersionHost('%d.%d')", rng.Intn(4), rng.Intn(10)) },
		func() string { return "le(T, expiry)" },
		func() string { return "reuseMap(reuse_map)" },
		func() string { return "logUpdate(l, K, Q)" },
	}
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth <= 0 || rng.Intn(3) == 0 {
			return preds[rng.Intn(len(preds))]()
		}
		switch rng.Intn(3) {
		case 0:
			return gen(depth-1) + " & " + gen(depth-1)
		case 1:
			return gen(depth-1) + " | " + gen(depth-1)
		default:
			return "(" + gen(depth-1) + ")"
		}
	}
	for i := 0; i < 500; i++ {
		src := "read :- " + gen(3)
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("iter %d: parse %q: %v", i, src, err)
		}
		rendered := p.String()
		p2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("iter %d: reparse %q: %v", i, rendered, err)
		}
		if p2.String() != rendered {
			t.Fatalf("iter %d: unstable rendering:\n%s\nvs\n%s", i, rendered, p2.String())
		}
	}
}

// TestRandomPolicyEvaluationTotal checks that evaluation never panics and is
// deterministic for random policies and environments.
func TestRandomPolicyEvaluationTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	srcs := []string{
		"read :- sessionKeyIs(K1) | sessionKeyIs(K2) & le(T, expiry)",
		"read :- reuseMap(m) & (hostLocIs(EU) | hostLocIs(US))",
		"read :- !sessionKeyIs(banned) & logUpdate(l, K, Q)",
		"exec :- fwVersionHost(latest) & fwVersionStorage('3.4') | storageLocIs(EU)",
	}
	for i := 0; i < 400; i++ {
		p := MustParse(srcs[rng.Intn(len(srcs))])
		env := Env{
			SessionKey:      fmt.Sprintf("K%d", rng.Intn(4)),
			HostLoc:         []string{"EU", "US"}[rng.Intn(2)],
			StorageLoc:      []string{"EU", "US"}[rng.Intn(2)],
			HostFW:          fmt.Sprintf("%d.%d", rng.Intn(3), rng.Intn(5)),
			StorageFW:       fmt.Sprintf("%d.%d", rng.Intn(4), rng.Intn(5)),
			LatestHostFW:    "2.1",
			LatestStorageFW: "3.4",
			AccessDate:      "1995-06-17",
			ServiceBit:      rng.Intn(8),
		}
		perm := []string{"read", "exec"}[rng.Intn(2)]
		ok1, eff1, err1 := p.Evaluate(perm, env)
		ok2, eff2, err2 := p.Evaluate(perm, env)
		if ok1 != ok2 || (err1 == nil) != (err2 == nil) ||
			len(eff1.RowFilters) != len(eff2.RowFilters) ||
			len(eff1.LogActions) != len(eff2.LogActions) {
			t.Fatalf("iter %d: nondeterministic evaluation", i)
		}
	}
}
