package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the type-aware forward taint engine the dataflow analyzers
// (plainflow, and the summary machinery failopen/policypath reuse) are built
// on. The lattice is a small bitmask of taint kinds; propagation is
// intraprocedural to a fixpoint over assignments, calls, composites, ranges
// and returns, with per-function summaries giving one call level of
// cross-function (and cross-package) flow:
//
//   - a summary records which parameters flow to which results, which
//     results are inherently tainted (the function wraps a source), and
//     which parameters reach a sink inside the function;
//   - summaries are computed WITHOUT consulting other summaries, so taint
//     crosses exactly one call boundary — deep interprocedural chains are
//     out of scope by design (and by the 30s vet budget).
//
// Callees resolve through go/types to their defining package, so rules can
// say "ReadPage on internal/securestore" without matching the unencrypted
// pager path, and golden testdata exercises path-scoped rules by living
// under a matching directory. When type information is missing the engine
// degrades to "no taint" rather than guessing.

// Taint is a bitmask of taint kinds.
type Taint uint8

const (
	// TaintPlaintext marks verified/decrypted page plaintext: the output of
	// the secure store's read path and page-open helpers.
	TaintPlaintext Taint = 1 << iota
	// TaintKey marks TEE-private key material: HUK-derived storage keys,
	// SGX sealing keys, unsealed secrets.
	TaintKey
	// taintTracer is the synthetic marker summary computation seeds
	// parameters with; it never appears in diagnostics.
	taintTracer
)

func (t Taint) String() string {
	switch {
	case t&TaintPlaintext != 0 && t&TaintKey != 0:
		return "plaintext+key material"
	case t&TaintKey != 0:
		return "key material"
	case t&TaintPlaintext != 0:
		return "verified plaintext"
	}
	return "untainted"
}

// A funcRule matches calls to a function or method by name and defining
// package.
type funcRule struct {
	// name is the function/method name; a trailing "*" makes it a prefix.
	name string
	// recv, when non-empty, requires the receiver's named type.
	recv string
	// modPrefixes are module-relative package-path prefixes the callee must
	// be defined under ("internal/securestore" covers its testdata
	// subtrees too).
	modPrefixes []string
	// stdPaths are exact import paths for stdlib/foreign callees.
	stdPaths []string
	// anyPkg accepts the name regardless of defining package — for names
	// that are de-facto reserved in this codebase (WriteBlock, sealPage).
	// anyPkg rules also match syntactically when types are unresolved.
	anyPkg bool
	// taint (sources only): kinds the call's results gain.
	taint Taint
	// result (sources only): which result index is tainted; -1 = all.
	result int
	// taintsArg (sources only), when positive, is the 1-based position of an
	// argument the call leaves holding the taint too: a source that works in
	// place, as openPage decrypts the record it is handed.
	taintsArg int
}

func (r *funcRule) nameMatches(name string) bool {
	if n, isPrefix := cutStar(r.name); isPrefix {
		return len(name) > len(n) && name[:len(n)] == n
	}
	return name == r.name
}

func cutStar(s string) (string, bool) {
	if n := len(s); n > 0 && s[n-1] == '*' {
		return s[:n-1], true
	}
	return s, false
}

// A sinkRule marks a call argument position where tainted data must not
// arrive.
type sinkRule struct {
	funcRule
	// arg is the sensitive argument index, -1 for all arguments. For
	// method calls the receiver is not an argument.
	arg int
	// bad is the set of taint kinds forbidden here.
	bad Taint
	// what names the sink in diagnostics ("raw device write").
	what string
	// fix is the remediation hint appended to diagnostics.
	fix string
}

// taintRules is one analyzer's source/sanitizer/sink configuration.
type taintRules struct {
	sources    []*funcRule
	sanitizers []*funcRule
	sinks      []*sinkRule
	// send, when set, makes every channel send a sink for its bad kinds: a
	// value sent leaves the function's control as surely as one written.
	send *sinkRule
}

// calleeFunc resolves the function or method a call targets, or nil when
// type information is missing.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions), dereferencing a pointer receiver.
func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Interface:
		return ""
	}
	return ""
}

// calleeName extracts the syntactic name of the called function for
// fallback matching when types are unresolved.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// ruleMatches reports whether call targets a function covered by r.
func ruleMatches(mod *Module, info *types.Info, file *ast.File, r *funcRule, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		// Syntactic fallback. anyPkg rules match on name alone; stdPaths
		// rules match a pkg-qualified selector through the import table.
		name := calleeName(call)
		if name == "" || !r.nameMatches(name) {
			return false
		}
		if r.anyPkg {
			return true
		}
		if len(r.stdPaths) > 0 && file != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
					path := importsOf(file)[x.Name]
					for _, p := range r.stdPaths {
						if path == p {
							return true
						}
					}
				}
			}
		}
		return false
	}
	if !r.nameMatches(fn.Name()) {
		return false
	}
	if r.recv != "" && recvTypeName(fn) != r.recv {
		return false
	}
	if r.anyPkg {
		return true
	}
	// A rule with no package constraint (typically name+recv) matches the
	// name/receiver anywhere.
	if len(r.modPrefixes) == 0 && len(r.stdPaths) == 0 {
		return true
	}
	if rel, isModule := mod.modRelOf(fn.Pkg()); isModule {
		for _, p := range r.modPrefixes {
			if hasPrefixPath(rel, p) {
				return true
			}
		}
		return false
	}
	if fn.Pkg() != nil {
		for _, p := range r.stdPaths {
			if fn.Pkg().Path() == p {
				return true
			}
		}
	}
	return false
}

// propagatorPkgs are stdlib packages whose pure functions pass taint from
// arguments to results (byte/string shuffling, encodings).
var propagatorPkgs = map[string]bool{
	"bytes":           true,
	"strings":         true,
	"encoding/hex":    true,
	"encoding/base64": true,
	"encoding/binary": true,
}

// fmtPropagators are the fmt functions that RETURN their formatting instead
// of printing it; printing variants are sinks, not propagators.
var fmtPropagators = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

// isPropagator reports whether the call passes argument taint through to
// its results.
func isPropagator(info *types.Info, file *ast.File, call *ast.CallExpr) bool {
	name := calleeName(call)
	if name == "" {
		return false
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		return propagatorPkgs[path] || (path == "fmt" && fmtPropagators[name])
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil && file != nil {
			path := importsOf(file)[x.Name]
			return propagatorPkgs[path] || (path == "fmt" && fmtPropagators[name])
		}
	}
	return false
}

// paramSinkInfo records that a parameter reaches a sink inside a callee.
type paramSinkInfo struct {
	bad  Taint
	what string
	fix  string
}

// A funcSummary is the one-call-deep interprocedural abstraction of a
// function: parameter-to-result flow, inherent result taint, and parameters
// that reach sinks. Parameter 0 is the receiver for methods.
type funcSummary struct {
	results     int
	resultTaint []Taint
	flows       [][]int
	paramSinks  [][]paramSinkInfo
}

// sinkHit is one taint arrival at a sink.
type sinkHit struct {
	pos   token.Pos
	taint Taint
	rule  *sinkRule
	// via names the callee whose summary carried the flow, "" for direct.
	via string
}

// taintEngine runs the lattice over one function body.
type taintEngine struct {
	pkg          *Package
	file         *ast.File
	rules        *taintRules
	useSummaries bool
	vars         map[types.Object]Taint
	// grew records that taintObj changed the state since propagate last
	// cleared it — by an assignment, or by a call tainting an argument as a
	// side effect of being evaluated (copy, in-place sources), wherever in an
	// expression it sits.
	grew bool
}

const maxTaintIters = 8

func newTaintEngine(pkg *Package, file *ast.File, rules *taintRules, useSummaries bool) *taintEngine {
	return &taintEngine{
		pkg:          pkg,
		file:         file,
		rules:        rules,
		useSummaries: useSummaries,
		vars:         map[types.Object]Taint{},
	}
}

func (e *taintEngine) info() *types.Info { return e.pkg.TypesInfo }

func (e *taintEngine) objOf(id *ast.Ident) types.Object {
	if e.info() == nil {
		return nil
	}
	if obj := e.info().Defs[id]; obj != nil {
		return obj
	}
	return e.info().Uses[id]
}

// rootObj finds the variable a write to lvalue ultimately mutates: x, x[i],
// x.f, *x all root at x (weak, field-insensitive updates).
func (e *taintEngine) rootObj(lvalue ast.Expr) types.Object {
	switch v := ast.Unparen(lvalue).(type) {
	case *ast.Ident:
		return e.objOf(v)
	case *ast.IndexExpr:
		return e.rootObj(v.X)
	case *ast.SelectorExpr:
		return e.rootObj(v.X)
	case *ast.StarExpr:
		return e.rootObj(v.X)
	case *ast.SliceExpr:
		return e.rootObj(v.X)
	}
	return nil
}

func (e *taintEngine) taintObj(obj types.Object, t Taint) {
	if obj == nil || t == 0 || e.vars[obj]&t == t {
		return
	}
	e.vars[obj] |= t
	e.grew = true
}

// exprTaint computes the taint of an expression under the current state.
func (e *taintEngine) exprTaint(expr ast.Expr) Taint {
	switch v := expr.(type) {
	case nil:
		return 0
	case *ast.Ident:
		if obj := e.objOf(v); obj != nil {
			return e.vars[obj]
		}
	case *ast.ParenExpr:
		return e.exprTaint(v.X)
	case *ast.SelectorExpr:
		// Method values and package-qualified names carry no data taint;
		// field accesses inherit the struct's taint.
		if e.info() != nil {
			if _, isFn := e.info().Uses[v.Sel].(*types.Func); isFn {
				return 0
			}
			if x, ok := v.X.(*ast.Ident); ok {
				if _, isPkg := e.objOf(x).(*types.PkgName); isPkg {
					return 0
				}
			}
		}
		return e.exprTaint(v.X)
	case *ast.IndexExpr:
		return e.exprTaint(v.X)
	case *ast.SliceExpr:
		return e.exprTaint(v.X)
	case *ast.StarExpr:
		return e.exprTaint(v.X)
	case *ast.UnaryExpr:
		return e.exprTaint(v.X)
	case *ast.BinaryExpr:
		return e.exprTaint(v.X) | e.exprTaint(v.Y)
	case *ast.CompositeLit:
		var t Taint
		for _, el := range v.Elts {
			t |= e.exprTaint(el)
		}
		return t
	case *ast.KeyValueExpr:
		return e.exprTaint(v.Value)
	case *ast.TypeAssertExpr:
		return e.exprTaint(v.X)
	case *ast.CallExpr:
		ts := e.callTaint(v)
		var t Taint
		for _, rt := range ts {
			t |= rt
		}
		return t
	}
	return 0
}

// callResultCount returns how many results the call produces (1 when
// unknown — exprTaint joins them anyway).
func (e *taintEngine) callResultCount(call *ast.CallExpr) int {
	if e.info() != nil {
		if tv, ok := e.info().Types[call]; ok {
			if tuple, ok := tv.Type.(*types.Tuple); ok {
				return tuple.Len()
			}
		}
	}
	return 1
}

// callTaint computes the per-result taint of a call, applying source,
// sanitizer, propagator and summary rules. Side effects: builtin copy
// taints its destination.
func (e *taintEngine) callTaint(call *ast.CallExpr) []Taint {
	n := e.callResultCount(call)
	out := make([]Taint, max(n, 1))

	// Type conversions ([]byte(x), string(x)) pass taint through.
	if e.info() != nil {
		if tv, ok := e.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			out[0] = e.exprTaint(call.Args[0])
			return out
		}
	}

	// Builtins.
	switch calleeName(call) {
	case "append":
		var t Taint
		for _, a := range call.Args {
			t |= e.exprTaint(a)
		}
		out[0] = t
		return out
	case "copy":
		if len(call.Args) == 2 {
			e.taintObj(e.rootObj(call.Args[0]), e.exprTaint(call.Args[1]))
		}
		return out
	case "len", "cap", "min", "max", "make", "new", "clear", "delete", "panic", "print", "println":
		return out
	}

	for _, r := range e.rules.sanitizers {
		if ruleMatches(e.pkg.Module, e.info(), e.file, r, call) {
			return out
		}
	}
	var matched bool
	for _, r := range e.rules.sources {
		if ruleMatches(e.pkg.Module, e.info(), e.file, r, call) {
			matched = true
			if r.taintsArg > 0 && r.taintsArg <= len(call.Args) {
				e.taintObj(e.rootObj(call.Args[r.taintsArg-1]), r.taint)
			}
			if r.result < 0 {
				for i := range out {
					out[i] |= r.taint
				}
			} else if r.result < len(out) {
				out[r.result] |= r.taint
			}
		}
	}
	if matched {
		return out
	}

	if isPropagator(e.info(), e.file, call) {
		var t Taint
		for _, a := range call.Args {
			t |= e.exprTaint(a)
		}
		for i := range out {
			out[i] |= t
		}
		return out
	}

	// One-call-deep summary flow for module-internal callees.
	if e.useSummaries {
		if fn := calleeFunc(e.info(), call); fn != nil {
			if _, isModule := e.pkg.Module.modRelOf(fn.Pkg()); isModule {
				if sum := e.pkg.Module.taintSummary(fn, e.rules); sum != nil {
					args := callArgsWithRecv(call, fn)
					for j, rt := range sum.resultTaint {
						if j < len(out) {
							out[j] |= rt &^ taintTracer
						}
					}
					for i, results := range sum.flows {
						t := e.argTaint(args, i, len(sum.flows))
						if t == 0 {
							continue
						}
						for _, j := range results {
							if j < len(out) {
								out[j] |= t
							}
						}
					}
				}
			}
		}
	}
	return out
}

// callArgsWithRecv returns the call's data arguments with the receiver
// prepended for method calls, aligning with summary parameter indexing.
func callArgsWithRecv(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	args := call.Args
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append([]ast.Expr{sel.X}, args...)
		}
	}
	return args
}

// argTaint maps summary parameter index i to call-site argument taint,
// folding variadic overflow onto the last parameter.
func (e *taintEngine) argTaint(args []ast.Expr, i, nparams int) Taint {
	if i < len(args) {
		t := e.exprTaint(args[i])
		if i == nparams-1 {
			for _, a := range args[i:] {
				t |= e.exprTaint(a)
			}
		}
		return t
	}
	return 0
}

// propagate runs one monotone pass over the body, returning whether the
// state changed. Function literals are analyzed inline: captured variables
// share the engine's state.
func (e *taintEngine) propagate(body ast.Node) bool {
	e.grew = false
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			e.assign(stmt.Lhs, stmt.Rhs)
		case *ast.ValueSpec:
			if len(stmt.Values) > 0 {
				lhs := make([]ast.Expr, len(stmt.Names))
				for i, id := range stmt.Names {
					lhs[i] = id
				}
				e.assign(lhs, stmt.Values)
			}
		case *ast.RangeStmt:
			t := e.exprTaint(stmt.X)
			if t != 0 {
				if stmt.Key != nil {
					e.taintObj(e.rootObj(stmt.Key), t)
				}
				if stmt.Value != nil {
					e.taintObj(e.rootObj(stmt.Value), t)
				}
			}
		case *ast.ExprStmt:
			// For side effects: copy(dst, tainted), openPage(pc, idx, record).
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				e.callTaint(call)
			}
		}
		return true
	})
	return e.grew
}

// assign joins right-hand taint into left-hand roots, handling the
// multi-value call/assert/index forms.
func (e *taintEngine) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		switch r := ast.Unparen(rhs[0]).(type) {
		case *ast.CallExpr:
			ts := e.callTaint(r)
			for i := range lhs {
				if i < len(ts) {
					e.taintObj(e.rootObj(lhs[i]), ts[i])
				}
			}
		default:
			// v, ok := m[k] / x.(T) / <-ch: the value is lhs[0].
			e.taintObj(e.rootObj(lhs[0]), e.exprTaint(rhs[0]))
		}
		return
	}
	for i := range lhs {
		if i < len(rhs) {
			e.taintObj(e.rootObj(lhs[i]), e.exprTaint(rhs[i]))
		}
	}
}

// run seeds the engine and propagates to a fixpoint.
func (e *taintEngine) run(body ast.Node, seed map[types.Object]Taint) {
	for obj, t := range seed {
		e.vars[obj] = t
	}
	for i := 0; i < maxTaintIters; i++ {
		if !e.propagate(body) {
			break
		}
	}
}

// checkSinks walks the body once after the fixpoint, collecting every taint
// arrival at a direct sink or (via summaries) at a sink one call deep.
func (e *taintEngine) checkSinks(body ast.Node) []sinkHit {
	var hits []sinkHit
	ast.Inspect(body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok && e.rules.send != nil {
			if t := e.exprTaint(send.Value) & (e.rules.send.bad | taintTracer); t != 0 {
				hits = append(hits, sinkHit{pos: send.Arrow, taint: t, rule: e.rules.send})
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, r := range e.rules.sinks {
			if !ruleMatches(e.pkg.Module, e.info(), e.file, &r.funcRule, call) {
				continue
			}
			args := call.Args
			if r.arg >= 0 {
				if r.arg >= len(args) {
					continue
				}
				args = args[r.arg : r.arg+1]
			}
			var t Taint
			for _, a := range args {
				t |= e.exprTaint(a)
			}
			// The tracer bit is kept alongside the bad kinds so summary
			// computation sees parameter-seeded flows; top-level engines
			// never seed it, so reported hits always carry a real kind.
			if t&(r.bad|taintTracer) != 0 {
				hits = append(hits, sinkHit{pos: call.Pos(), taint: t & (r.bad | taintTracer), rule: r})
			}
		}
		// Sanitizer and source calls never forward their arguments to an
		// internal sink we care about.
		if e.useSummaries {
			if fn := calleeFunc(e.info(), call); fn != nil {
				if _, isModule := e.pkg.Module.modRelOf(fn.Pkg()); isModule {
					if sum := e.pkg.Module.taintSummary(fn, e.rules); sum != nil {
						args := callArgsWithRecv(call, fn)
						for i, sinks := range sum.paramSinks {
							if len(sinks) == 0 {
								continue
							}
							t := e.argTaint(args, i, len(sum.flows))
							if t == 0 {
								continue
							}
							for _, ps := range sinks {
								if t&ps.bad != 0 {
									hits = append(hits, sinkHit{
										pos:   call.Pos(),
										taint: t & ps.bad,
										rule:  &sinkRule{what: ps.what, fix: ps.fix, bad: ps.bad},
										via:   fn.Name(),
									})
								}
							}
						}
					}
				}
			}
		}
		return true
	})
	return hits
}

// taintSummary computes (and caches) the one-call-deep summary of a
// module-internal function. Summary engines never consult other summaries.
func (m *Module) taintSummary(fn *types.Func, rules *taintRules) *funcSummary {
	if m.taintSums == nil {
		m.taintSums = map[*types.Func]*funcSummary{}
	}
	if sum, ok := m.taintSums[fn]; ok {
		return sum
	}
	m.taintSums[fn] = nil // cycle/self-recursion guard
	ref := m.funcFor(fn)
	if ref == nil {
		return nil
	}
	sum := computeTaintSummary(ref, rules)
	m.taintSums[fn] = sum
	return sum
}

const maxSummaryParams = 8

func computeTaintSummary(ref *funcDeclRef, rules *taintRules) *funcSummary {
	fd := ref.decl
	pkg := ref.pkg
	file := fileOf(pkg, fd.Pos())
	params := summaryParams(pkg, fd)
	if len(params) > maxSummaryParams {
		return nil
	}
	nresults := 0
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			if n := len(f.Names); n > 0 {
				nresults += n
			} else {
				nresults++
			}
		}
	}
	sum := &funcSummary{
		results:     nresults,
		resultTaint: make([]Taint, nresults),
		flows:       make([][]int, len(params)),
		paramSinks:  make([][]paramSinkInfo, len(params)),
	}
	allows := parseAllows(pkg.Fset, pkg.Files)

	// Inherent result taint: sources inside the body, no seeds.
	base := newTaintEngine(pkg, file, rules, false)
	base.run(fd.Body, nil)
	collectReturnTaint(base, fd, sum.resultTaint, 0)

	// Per-parameter flows: seed one tracer at a time.
	for i, p := range params {
		if p == nil {
			continue
		}
		eng := newTaintEngine(pkg, file, rules, false)
		eng.run(fd.Body, map[types.Object]Taint{p: taintTracer})
		rt := make([]Taint, nresults)
		collectReturnTaint(eng, fd, rt, taintTracer)
		for j, t := range rt {
			if t&taintTracer != 0 {
				sum.flows[i] = append(sum.flows[i], j)
			}
		}
		for _, hit := range eng.checkSinks(fd.Body) {
			if hit.taint&taintTracer == 0 || hit.via != "" {
				continue
			}
			// A suppressed internal sink is a reviewed exception; callers
			// must not re-report it.
			if allows.allowed(currentSinkAnalyzer(rules), pkg.Fset.Position(hit.pos)) {
				continue
			}
			sum.paramSinks[i] = append(sum.paramSinks[i], paramSinkInfo{
				bad:  hit.rule.bad,
				what: hit.rule.what,
				fix:  hit.rule.fix,
			})
		}
	}
	return sum
}

// currentSinkAnalyzer names the analyzer whose allow directives suppress
// summary sink propagation. Today only plainflow feeds sink rules through
// summaries.
func currentSinkAnalyzer(rules *taintRules) string { return "plainflow" }

// collectReturnTaint joins the taint of every return statement's results
// (and named results at bare returns) into out, masked to the kinds present
// when mask is zero or to mask otherwise.
func collectReturnTaint(e *taintEngine, fd *ast.FuncDecl, out []Taint, mask Taint) {
	named := namedResults(e.pkg, fd)
	depth := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			depth++
			// Returns inside nested literals are not this function's.
			ast.Inspect(v.Body, func(ast.Node) bool { return false })
			return false
		case *ast.ReturnStmt:
			if len(v.Results) == 0 {
				for j, obj := range named {
					if j < len(out) && obj != nil {
						out[j] |= filterMask(e.vars[obj], mask)
					}
				}
				return true
			}
			if len(v.Results) == 1 && len(out) > 1 {
				if call, ok := ast.Unparen(v.Results[0]).(*ast.CallExpr); ok {
					ts := e.callTaint(call)
					for j := range out {
						if j < len(ts) {
							out[j] |= filterMask(ts[j], mask)
						}
					}
					return true
				}
			}
			for j, r := range v.Results {
				if j < len(out) {
					out[j] |= filterMask(e.exprTaint(r), mask)
				}
			}
		}
		_ = depth
		return true
	})
}

func filterMask(t, mask Taint) Taint {
	if mask == 0 {
		return t &^ taintTracer
	}
	return t & mask
}

// summaryParams returns the types.Objects of the receiver (methods) and
// parameters in declaration order; unnamed slots are nil.
func summaryParams(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	addField := func(f *ast.Field) {
		if len(f.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, name := range f.Names {
			var obj types.Object
			if pkg.TypesInfo != nil {
				obj = pkg.TypesInfo.Defs[name]
			}
			out = append(out, obj)
		}
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			addField(f)
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			addField(f)
		}
	}
	return out
}

// namedResults returns the objects of named results, nil entries for
// unnamed ones.
func namedResults(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Results == nil {
		return out
	}
	for _, f := range fd.Type.Results.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			var obj types.Object
			if pkg.TypesInfo != nil {
				obj = pkg.TypesInfo.Defs[name]
			}
			out = append(out, obj)
		}
	}
	return out
}

// fileOf finds the parsed file containing pos.
func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
