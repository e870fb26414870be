package policy

import (
	"errors"
	"fmt"

	"ironsafe/internal/sql/ast"
	"ironsafe/internal/value"
)

// Env is the attested environment the monitor evaluates policies against.
type Env struct {
	// SessionKey is the connecting client's identity key fingerprint.
	SessionKey string
	// Host / storage attributes, from attestation.
	HostLoc    string
	StorageLoc string
	HostFW     string
	StorageFW  string
	// Latest firmware versions known to the monitor, resolving the
	// 'latest' argument.
	LatestHostFW    string
	LatestStorageFW string
	// AccessDate is the query's access time as 'YYYY-MM-DD' (used by the
	// timely-deletion rewrite).
	AccessDate string
	// ServiceBit is the connecting client's position in reuse bitmaps.
	ServiceBit int
}

// LogAction is an obligation to record query metadata in a named log.
type LogAction struct {
	Log    string   // log name (first logUpdate argument)
	Fields []string // remaining arguments, e.g. K (identity) and Q (query)
}

// ErrAccessDate reports le(T, col) evaluated without a well-formed AccessDate.
var ErrAccessDate = errors.New("policy: le(T, col) needs a YYYY-MM-DD access date")

// Effects are the obligations attached to a satisfied policy.
type Effects struct {
	// RowFilters are predicates the monitor ANDs into the client's query's
	// WHERE during policy-compliant rewriting.
	RowFilters []ast.Expr
	// LogActions are audit-log obligations.
	LogActions []LogAction
}

func (e Effects) merge(o Effects) Effects {
	return Effects{
		RowFilters: append(append([]ast.Expr{}, e.RowFilters...), o.RowFilters...),
		LogActions: append(append([]LogAction{}, e.LogActions...), o.LogActions...),
	}
}

// Evaluate checks whether env satisfies the rule for perm, returning the
// effects of the satisfying branch. A permission with no rule is denied.
func (p *Policy) Evaluate(perm string, env Env) (bool, Effects, error) {
	rule, ok := p.Rules[perm]
	if !ok {
		return false, Effects{}, nil
	}
	return evalNode(rule, env)
}

func evalNode(n Node, env Env) (bool, Effects, error) {
	switch x := n.(type) {
	case *And:
		lok, leff, err := evalNode(x.L, env)
		if err != nil {
			return false, Effects{}, err
		}
		if !lok {
			return false, Effects{}, nil
		}
		rok, reff, err := evalNode(x.R, env)
		if err != nil || !rok {
			return false, Effects{}, err
		}
		return true, leff.merge(reff), nil
	case *Or:
		lok, leff, err := evalNode(x.L, env)
		if err != nil {
			return false, Effects{}, err
		}
		if lok {
			return true, leff, nil
		}
		return evalNode(x.R, env)
	case *Not:
		ok, eff, err := evalNode(x.X, env)
		if err != nil {
			return false, Effects{}, err
		}
		if len(eff.RowFilters) > 0 || len(eff.LogActions) > 0 {
			return false, Effects{}, fmt.Errorf("policy: cannot negate effect predicates")
		}
		return !ok, Effects{}, nil
	case *Pred:
		return evalPred(x, env)
	default:
		return false, Effects{}, fmt.Errorf("policy: unknown node %T", n)
	}
}

func evalPred(p *Pred, env Env) (bool, Effects, error) {
	switch p.Name {
	case "sessionKeyIs":
		return env.SessionKey == p.Args[0], Effects{}, nil
	case "hostLocIs":
		return env.HostLoc == p.Args[0], Effects{}, nil
	case "storageLocIs":
		return env.StorageLoc == p.Args[0], Effects{}, nil
	case "fwVersionHost":
		want := p.Args[0]
		if want == "latest" {
			want = env.LatestHostFW
		}
		return CompareVersions(env.HostFW, want) >= 0, Effects{}, nil
	case "fwVersionStorage":
		want := p.Args[0]
		if want == "latest" {
			want = env.LatestStorageFW
		}
		return CompareVersions(env.StorageFW, want) >= 0, Effects{}, nil
	case "le":
		// le(T, col): access time must not exceed the per-record expiry
		// column — enforced as a row filter on the rewritten query.
		col := &ast.ColumnRef{Name: p.Args[1]}
		if p.Args[0] != "T" {
			// Generality: le(colA, colB) compares two columns directly.
			return true, Effects{RowFilters: []ast.Expr{&ast.BinaryExpr{Op: ast.OpLe, Left: &ast.ColumnRef{Name: p.Args[0]}, Right: col}}}, nil
		}
		access, err := value.ParseDate(env.AccessDate)
		if err != nil {
			return false, Effects{}, fmt.Errorf("%w: %v", ErrAccessDate, err)
		}
		return true, Effects{RowFilters: []ast.Expr{&ast.BinaryExpr{Op: ast.OpGe, Left: col, Right: &ast.Literal{Value: access}}}}, nil
	case "reuseMap":
		// reuseMap(col): the record's opt-in bitmap must have the
		// client's service bit set.
		if env.ServiceBit < 0 || env.ServiceBit > 62 {
			return false, Effects{}, fmt.Errorf("policy: reuseMap service bit %d out of range", env.ServiceBit)
		}
		// Bit b of the bitmap is set iff (m % 2^(b+1)) >= 2^b — pure
		// modulo arithmetic, valid in the engine's integer semantics.
		mask := int64(1) << uint(env.ServiceBit)
		bits := &ast.BinaryExpr{Op: ast.OpMod, Left: &ast.ColumnRef{Name: p.Args[0]}, Right: &ast.Literal{Value: value.Int(mask * 2)}}
		return true, Effects{RowFilters: []ast.Expr{&ast.BinaryExpr{Op: ast.OpGe, Left: bits, Right: &ast.Literal{Value: value.Int(mask)}}}}, nil
	case "logUpdate":
		return true, Effects{LogActions: []LogAction{{Log: p.Args[0], Fields: p.Args[1:]}}}, nil
	}
	return false, Effects{}, fmt.Errorf("policy: unknown predicate %q", p.Name)
}

// Predicates returns every predicate mentioned in the policy (for audit
// display and validation).
func (p *Policy) Predicates() []*Pred {
	var out []*Pred
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *And:
			walk(x.L)
			walk(x.R)
		case *Or:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.X)
		case *Pred:
			out = append(out, x)
		}
	}
	for _, perm := range p.Order {
		walk(p.Rules[perm])
	}
	return out
}
