// Package policy implements IronSafe's declarative policy specification
// language (§4.3): a rule per permission built from predicates, parsed by a
// small recursive-descent parser and evaluated by the trusted monitor.
//
// Syntax (':-' and the paper's '::=' are both accepted; '&' is conjunction,
// '|' is disjunction with lower precedence, '!' negation):
//
//	read  :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, expiry)
//	write :- sessionKeyIs(Ka)
//	exec  :- fwVersionStorage('3.4') & fwVersionHost(latest) & storageLocIs('EU')
//
// Predicates are of two kinds. Admission predicates (sessionKeyIs,
// hostLocIs, storageLocIs, fwVersionHost, fwVersionStorage) evaluate against
// the attested environment. Effect predicates (le, reuseMap, logUpdate)
// always hold but attach obligations to the satisfying branch: row filters
// the monitor compiles into the query rewrite, and log actions it performs —
// this is how the GDPR anti-patterns of §4.3 are enforced.
package policy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ironsafe/internal/sql/lexer"
)

// Node is a policy condition tree node.
type Node interface {
	String() string
}

// Pred is one predicate invocation.
type Pred struct {
	Name string
	Args []string
}

// String implements Node.
func (p *Pred) String() string {
	args := make([]string, len(p.Args))
	for i, a := range p.Args {
		args[i] = renderArg(a)
	}
	return p.Name + "(" + strings.Join(args, ", ") + ")"
}

// renderArg quotes an argument unless it is a bare word the parser accepts
// unquoted, so rendering always reparses to the same tree.
func renderArg(a string) string {
	bare := a != ""
	for i := 0; i < len(a); i++ {
		if !isAlnum(a[i]) && a[i] != '_' && a[i] != '.' && a[i] != '-' && a[i] != '#' {
			bare = false
			break
		}
	}
	if bare {
		return a
	}
	return "'" + a + "'"
}

// And is conjunction.
type And struct{ L, R Node }

// String implements Node.
func (a *And) String() string { return "(" + a.L.String() + " & " + a.R.String() + ")" }

// Or is disjunction.
type Or struct{ L, R Node }

// String implements Node.
func (o *Or) String() string { return "(" + o.L.String() + " | " + o.R.String() + ")" }

// Not is negation.
type Not struct{ X Node }

// String implements Node.
func (n *Not) String() string { return "!" + n.X.String() }

// Policy is a set of permission rules.
type Policy struct {
	Rules map[string]Node // permission -> condition
	Order []string        // declaration order, for display
}

// String renders the policy back to source form.
func (p *Policy) String() string {
	var sb strings.Builder
	for _, perm := range p.Order {
		fmt.Fprintf(&sb, "%s :- %s\n", perm, p.Rules[perm].String())
	}
	return sb.String()
}

// Permissions the language recognises on the left-hand side.
var validPerms = map[string]bool{"read": true, "write": true, "exec": true}

// knownPredicates and their argument counts (-1 = variadic >= 1).
var knownPredicates = map[string]int{
	"sessionKeyIs":     1,
	"hostLocIs":        1,
	"storageLocIs":     1,
	"fwVersionHost":    1,
	"fwVersionStorage": 1,
	"le":               2,
	"reuseMap":         1,
	"logUpdate":        -1,
}

// Parse parses policy source: one rule per line (';' also separates rules),
// '--' starts a comment.
func Parse(src string) (*Policy, error) {
	p := &Policy{Rules: map[string]Node{}}
	lines := strings.FieldsFunc(src, func(r rune) bool { return r == '\n' || r == ';' })
	for _, line := range lines {
		if i := strings.Index(line, "--"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		sep := ":-"
		idx := strings.Index(line, ":-")
		if j := strings.Index(line, "::="); j >= 0 && (idx < 0 || j < idx) {
			sep, idx = "::=", j
		}
		if idx < 0 {
			return nil, fmt.Errorf("policy: rule %q missing ':-'", line)
		}
		perm := strings.TrimSpace(line[:idx])
		if !validPerms[perm] {
			return nil, fmt.Errorf("policy: unknown permission %q (want read, write, or exec)", perm)
		}
		if _, dup := p.Rules[perm]; dup {
			return nil, fmt.Errorf("policy: duplicate rule for %q", perm)
		}
		cond, err := parseCondition(strings.TrimSpace(line[idx+len(sep):]))
		if err != nil {
			return nil, fmt.Errorf("policy: rule %q: %w", perm, err)
		}
		p.Rules[perm] = cond
		p.Order = append(p.Order, perm)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("policy: empty policy")
	}
	return p, nil
}

// MustParse is Parse for known-good literals.
func MustParse(src string) *Policy {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// --- condition parser ---

// ErrTooDeep reports a condition nesting '(' and '!' past maxDepth, where the
// parser's recursion would exhaust the stack, or a tree taller than that,
// whose rendering (one '(' per '&' and '|') would not parse again.
var ErrTooDeep = errors.New("policy: condition nested too deeply")

const maxDepth = 1000

type condParser struct {
	s     string
	pos   int
	depth int // '(' and '!' levels entered and not yet left
}

func parseCondition(s string) (Node, error) {
	cp := &condParser{s: s}
	n, err := cp.parseOr()
	if err != nil {
		return nil, err
	}
	cp.skipSpace()
	if cp.pos != len(cp.s) {
		return nil, fmt.Errorf("trailing input at %q", cp.s[cp.pos:])
	}
	if !fits(n, 0) {
		return nil, fmt.Errorf("%w: condition tree over %d levels", ErrTooDeep, maxDepth)
	}
	return n, nil
}

// fits reports whether the tree under n, its root at height h, fits maxDepth.
func fits(n Node, h int) bool {
	if h++; h > maxDepth {
		return false
	}
	switch x := n.(type) {
	case *And:
		return fits(x.L, h) && fits(x.R, h)
	case *Or:
		return fits(x.L, h) && fits(x.R, h)
	case *Not:
		return fits(x.X, h)
	}
	return true
}

func (c *condParser) skipSpace() {
	for c.pos < len(c.s) && (c.s[c.pos] == ' ' || c.s[c.pos] == '\t') {
		c.pos++
	}
}

func (c *condParser) peekByte() byte {
	c.skipSpace()
	if c.pos >= len(c.s) {
		return 0
	}
	return c.s[c.pos]
}

func (c *condParser) parseOr() (Node, error) {
	left, err := c.parseAnd()
	if err != nil {
		return nil, err
	}
	for c.peekByte() == '|' {
		c.pos++
		right, err := c.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Or{L: left, R: right}
	}
	return left, nil
}

func (c *condParser) parseAnd() (Node, error) {
	left, err := c.parseUnary()
	if err != nil {
		return nil, err
	}
	for c.peekByte() == '&' {
		c.pos++
		right, err := c.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &And{L: left, R: right}
	}
	return left, nil
}

func (c *condParser) parseUnary() (Node, error) {
	b := c.peekByte()
	if b != '!' && b != '(' {
		return c.parsePred()
	}
	if c.depth == maxDepth {
		return nil, fmt.Errorf("%w: more than %d levels at offset %d", ErrTooDeep, maxDepth, c.pos)
	}
	c.depth++
	defer func() { c.depth-- }()
	c.pos++
	if b == '!' {
		inner, err := c.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{X: inner}, nil
	}
	inner, err := c.parseOr()
	if err != nil {
		return nil, err
	}
	if c.peekByte() != ')' {
		return nil, fmt.Errorf("missing ')'")
	}
	c.pos++
	return inner, nil
}

func (c *condParser) parsePred() (Node, error) {
	c.skipSpace()
	start := c.pos
	for c.pos < len(c.s) && (isAlnum(c.s[c.pos]) || c.s[c.pos] == '_') {
		c.pos++
	}
	name := c.s[start:c.pos]
	if name == "" {
		return nil, fmt.Errorf("expected predicate at %q", c.s[start:])
	}
	arity, known := knownPredicates[name]
	if !known {
		return nil, fmt.Errorf("unknown predicate %q", name)
	}
	if c.peekByte() != '(' {
		return nil, fmt.Errorf("predicate %q requires arguments", name)
	}
	c.pos++
	var args []string
	for {
		arg, err := c.parseArg()
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
		if c.peekByte() == ',' {
			c.pos++
			continue
		}
		break
	}
	if c.peekByte() != ')' {
		return nil, fmt.Errorf("predicate %q missing ')'", name)
	}
	c.pos++
	if arity >= 0 && len(args) != arity {
		return nil, fmt.Errorf("predicate %q takes %d argument(s), got %d", name, arity, len(args))
	}
	if arity < 0 && len(args) < 1 {
		return nil, fmt.Errorf("predicate %q needs at least one argument", name)
	}
	for _, a := range args {
		if (name == "le" || name == "reuseMap") && !isColumnName(a) {
			return nil, fmt.Errorf("predicate %q: %q is not a column name", name, a)
		}
	}
	return &Pred{Name: name, Args: args}, nil
}

// isColumnName reports whether a reads as one SQL identifier, so the row
// filter built from it names that column and nothing else.
func isColumnName(a string) bool {
	toks, err := lexer.Lex(a)
	return err == nil && len(toks) == 2 && toks[0].Kind == lexer.Ident && toks[0].Text == a
}

func (c *condParser) parseArg() (string, error) {
	c.skipSpace()
	if c.pos >= len(c.s) {
		return "", fmt.Errorf("unexpected end of argument list")
	}
	if c.s[c.pos] == '\'' {
		end := strings.IndexByte(c.s[c.pos+1:], '\'')
		if end < 0 {
			return "", fmt.Errorf("unterminated string argument")
		}
		arg := c.s[c.pos+1 : c.pos+1+end]
		c.pos += end + 2
		return arg, nil
	}
	start := c.pos
	for c.pos < len(c.s) && (isAlnum(c.s[c.pos]) || c.s[c.pos] == '_' || c.s[c.pos] == '.' || c.s[c.pos] == '-' || c.s[c.pos] == '#') {
		c.pos++
	}
	if c.pos == start {
		return "", fmt.Errorf("bad argument at %q", c.s[start:])
	}
	return c.s[start:c.pos], nil
}

func isAlnum(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// CompareVersions orders dotted numeric versions: -1, 0, 1.
func CompareVersions(a, b string) int {
	as := strings.Split(a, ".")
	bs := strings.Split(b, ".")
	for i := 0; i < len(as) || i < len(bs); i++ {
		av, bv := 0, 0
		if i < len(as) {
			av, _ = strconv.Atoi(as[i])
		}
		if i < len(bs) {
			bv, _ = strconv.Atoi(bs[i])
		}
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}
