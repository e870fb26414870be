package exec

import (
	"fmt"
	"strings"

	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/ast"
)

// Trace records the physical decisions an execution made — the EXPLAIN
// ANALYZE view of the executor: scan and filter cardinalities,
// join strategies and key sets, subquery decorrelation, aggregation fan-in.
type Trace struct {
	lines []string
}

func (t *Trace) addf(format string, args ...any) {
	if t == nil {
		return
	}
	t.lines = append(t.lines, fmt.Sprintf(format, args...))
}

// String renders the trace, one operator per line in execution order.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	return strings.Join(t.lines, "\n")
}

// Lines returns the raw trace lines.
func (t *Trace) Lines() []string {
	if t == nil {
		return nil
	}
	return append([]string{}, t.lines...)
}

// Explain executes sel and returns both its result and the execution trace.
func Explain(sel *ast.Select, cat Catalog, meter *simtime.Meter) (*Result, *Trace, error) {
	tr := &Trace{}
	b := &builder{cat: cat, meter: meter, trace: tr, batchRows: DefaultBatchRows, stmt: sel}
	res, err := b.buildSelect(sel, nil)
	if err != nil {
		return nil, tr, err
	}
	return res, tr, nil
}

// exprsText renders a key list compactly.
func exprsText(exprs []ast.Expr) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
