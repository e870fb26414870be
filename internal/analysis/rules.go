package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// The call- and import-site checks are rows of one table, run by runRules:
// each row says which packages it covers, whether test files count, and what
// it matches — a use of a function (a funcRule, resolved by the same typed
// matcher the dataflow analyzers use, so `clock := time.Now` counts as much
// as a call and a Read on a non-net type named connStats does not), an import
// path, or a shape a funcRule cannot name. An analyzer is every row under its
// name; the allow directive names it.

// A rule is one row of the table.
type rule struct {
	analyzer string
	// scope lists the module-relative package prefixes the row covers (nil:
	// the whole module); exempt lists those it skips. "" is the module root
	// package alone.
	scope, exempt []string
	// tests makes _test.go files count.
	tests bool
	// funcs match any use of the function: a call, a method value, a func
	// value stored in a field.
	funcs []*funcRule
	// imports match import specs of these paths.
	imports []string
	// downDelete matches delete(<x>.down, id): readmit's down-set removal.
	downDelete bool
	// counters match any method but Load on these simtime.Meter counters.
	counters []string
	// msg is the diagnostic: {name} is replaced by the matched function,
	// import path or counter, {pkg} by the package's path, {exempt} by exempt.
	msg string
}

// rawnetWrappers are the layers that legitimately touch raw connections and
// dials: resilience owns dialing (timeouts, retry, health accounting),
// transport owns deadline-armed frame I/O, and faultinject and adversary wrap
// net.Conn beneath the AEAD boundary to mount the one fault plan's accidents
// and attacks.
var rawnetWrappers = []string{"internal/resilience", "internal/transport", "internal/faultinject", "internal/adversary"}

// cryptorandCritical are the subtrees where weak randomness is most
// dangerous — key generation, nonces, attestation challenges, handshakes.
// The check covers the whole module; these get the sharper message.
var cryptorandCritical = []string{"internal/tee", "internal/securestore", "internal/transport", "internal/monitor"}

var mathRand = []string{"math/rand", "math/rand/v2"}

var rules = []*rule{
	{
		analyzer: "wallclock", tests: true,
		funcs: pkgFuncs("time", "Now", "Since", "Until", "Sleep", "Tick", "After", "AfterFunc", "NewTicker", "NewTimer"),
		msg:   "real clock read {name} on a simulation path; use the simtime cost model, or annotate genuinely real-time code with //ironsafe:allow wallclock",
	},
	{
		analyzer: "cryptorand", tests: true, scope: cryptorandCritical, imports: mathRand,
		msg: "{name} imported in security-critical package {pkg}; nonces, keys, and challenges must come from crypto/rand",
	},
	{
		analyzer: "cryptorand", tests: true, imports: mathRand,
		// internal/tpch: TPC-H data must be bit-identical for a given scale
		// factor, so runs compare and differential tests stay stable; the
		// values are public benchmark data, never key material, and a seeded
		// math/rand stream is the right tool (crypto/rand cannot be seeded).
		exempt: append([]string{"internal/tpch"}, cryptorandCritical...),
		msg:    "{name} imported; use crypto/rand, or exempt this package in the cryptorand rule with a rationale if determinism is required",
	},
	{
		// Only the trusted set may hold enclave handles: the module root (the
		// cluster facade), the TEE, monitor, store and engine layers, chaos
		// (it boots simulated TrustZone devices for the power-cut sweep, never
		// touching key material) and the cmd binaries.
		analyzer: "boundary", tests: true,
		exempt:  []string{"", "internal/tee", "internal/monitor", "internal/securestore", "internal/storageengine", "internal/hostengine", "internal/chaos", "cmd"},
		imports: []string{"ironsafe/internal/tee/sgx", "ironsafe/internal/tee/trustzone"},
		msg:     "package {pkg} is outside the trusted set but imports enclave-private {name}; route through the monitor or storage engine APIs",
	},
	{
		// A raw socket is a plaintext exfiltration channel around the AEAD
		// boundary. Only the channel layers, the engine frontends that wrap
		// accepted connections, the fault and attack wrappers, chaos (which
		// composes them; rawnet still applies) and the binaries import "net".
		analyzer: "boundary", tests: true,
		exempt:  append([]string{"", "internal/ctl", "internal/hostengine", "internal/storageengine", "internal/chaos", "cmd"}, rawnetWrappers...),
		imports: []string{"net"},
		msg:     "package {pkg} must not open raw network channels; all traffic goes through internal/transport or internal/ctl",
	},
	{
		analyzer: "rawnet", exempt: rawnetWrappers,
		funcs: []*funcRule{{name: "Dial*", stdPaths: []string{"net"}}},
		msg:   "naked {name}; dial through resilience.DialTCP so the connection gets a bounded timeout, retry policy, and health accounting",
	},
	{
		analyzer: "rawnet", exempt: rawnetWrappers,
		funcs: []*funcRule{{name: "Read", stdPaths: []string{"net"}}, {name: "Write", stdPaths: []string{"net"}}},
		msg:   "raw {name} outside the channel wrappers; frame I/O belongs in transport.SecureConn, or annotate a deadline-guarded exception with //ironsafe:allow rawnet naming the guard",
	},
	{
		analyzer: "journalbypass", scope: []string{"internal/securestore"},
		funcs: []*funcRule{{name: "WriteBlock", anyPkg: true}},
		msg:   "direct WriteBlock bypasses the redo journal; stage the write in a Txn (or, on the commit/recovery path itself, annotate the ordering with //ironsafe:allow journalbypass)",
	},
	{
		// The health tracker's own package manipulates per-node state freely:
		// the invariant governs who calls readmission.
		analyzer: "readmit", exempt: []string{"internal/resilience"},
		funcs: []*funcRule{{name: "MarkUp", anyPkg: true}},
		msg:   "health MarkUp readmits a node without attestation; route readmission through ReattestStorage (or annotate the sanctioned site with //ironsafe:allow readmit)",
	},
	{
		analyzer: "readmit", exempt: []string{"internal/resilience"}, downDelete: true,
		msg: "down-set removal readmits a node without attestation; route readmission through ReattestStorage (or annotate the sanctioned site with //ironsafe:allow readmit)",
	},
	{
		// The cluster runtime (module root) and the host engine's offload
		// machinery run inside a query; resilience implements the budget, and
		// services and tooling run outside any query.
		analyzer: "budgetless", scope: []string{"", "internal/hostengine"},
		funcs: []*funcRule{
			{name: "Retry", modPrefixes: []string{"internal/resilience"}, noRecv: true},
			{name: "WithConnDeadline", modPrefixes: []string{"internal/resilience"}, noRecv: true},
		},
		msg: "budget-blind {name} on the offload path ignores the query's deadline budget; use RetryBudgeted / WithBudgetedConnDeadline, or annotate a genuinely query-free site with //ironsafe:allow budgetless",
	},
	{
		analyzer: "rowloop", scope: []string{"internal/sql/exec"},
		funcs: []*funcRule{{name: "Scan", modPrefixes: []string{""}}},
		msg:   "row-at-a-time Relation.Scan loop in the executor; consume ScanBatch (batched pipeline) or annotate the sanctioned fallback with //ironsafe:allow rowloop",
	},
	// metercharge's owner table: a counter is charged only by the layers that do its work.
	{analyzer: "metercharge", exempt: []string{"internal/sql/exec"}, counters: []string{"TuplesProcessed", "TupleWork", "Batches"}, msg: meterMsg},
	{analyzer: "metercharge", exempt: []string{"internal/pager", "internal/securestore"}, counters: []string{"PagesRead", "PagesWritten", "ScanBatches"}, msg: meterMsg},
	{analyzer: "metercharge", exempt: []string{"internal/securestore"}, counters: []string{"PagesDecrypted", "PagesEncrypted", "MerkleVerifies", "MerkleHashes", "MerkleHashesSaved"}, msg: meterMsg},
	{analyzer: "metercharge", exempt: []string{"internal/tee/sgx"}, counters: []string{"EnclaveTransitions", "EPCFaults"}, msg: meterMsg},
	{analyzer: "metercharge", exempt: []string{"internal/tee/trustzone"}, counters: []string{"WorldSwitches", "RPMBReads", "RPMBWrites"}, msg: meterMsg},
	{analyzer: "metercharge", exempt: []string{"internal/transport", "internal/hostengine", "internal/storageengine"}, counters: []string{"BytesSent", "BytesReceived"}, msg: meterMsg},
	{analyzer: "metercharge", exempt: []string{"internal/hostengine", "internal/storageengine"}, counters: []string{"RowsShipped"}, msg: meterMsg},
}

const meterMsg = "{name} charged in {pkg}, which does not do that work; only {exempt} may charge it, so a priced counter moves only for work that ran"

// pkgFuncs rules the named package-level functions of one standard-library
// package.
func pkgFuncs(path string, names ...string) []*funcRule {
	out := make([]*funcRule, len(names))
	for i, n := range names {
		out[i] = &funcRule{name: n, stdPaths: []string{path}, noRecv: true}
	}
	return out
}

// Wallclock flags real-clock reads anywhere in the module. Benchmark results
// are simulated times computed by internal/simtime from work counters; a
// stray clock read on an execution path re-couples "measured" latency to the
// speed of the machine. Genuinely real-time code (client latency reporting,
// deployed-service timestamps) carries an allow directive.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "flag real clock reads (time.Now/Since/Sleep/...) that would contaminate the simulated cost model",
	Run:  runRules,
}

// Cryptorand flags math/rand imports. In the security packages a math/rand
// nonce or challenge is a key-recovery or replay vulnerability; elsewhere it
// is a latent one, because helpers migrate.
var Cryptorand = &Analyzer{
	Name: "cryptorand",
	Doc:  "flag math/rand imports; security code must use crypto/rand, and exceptions must be exempted in the rule",
	Run:  runRules,
}

// Rawnet polices how the net-trusted layers use "net": a package-level or
// Dialer dial has no timeout, retry or health accounting (use
// resilience.DialTCP), and Read/Write on a net connection arms no deadline
// and bypasses the AEAD frame layer (use transport.SecureConn). Test files
// are exempt: tests act as raw peers on purpose.
var Rawnet = &Analyzer{
	Name: "rawnet",
	Doc:  "flag naked net dials and raw net conn Read/Write outside the resilience/transport/faultinject/adversary wrappers",
	Run:  runRules,
}

// Journalbypass flags direct WriteBlock uses inside internal/securestore: a
// power cut at any write boundary recovers to the old or the new anchored
// state only if every medium mutation is ordered behind a journal record. The
// journal write itself and the in-place applies of commit and recovery carry
// allow directives naming their ordering. Test files are exempt.
var Journalbypass = &Analyzer{
	Name: "journalbypass",
	Doc:  "flag direct device WriteBlock calls in internal/securestore outside the journaled commit/recovery paths",
	Run:  runRules,
}

// Readmit flags membership readmission outside the attested protocol. A
// quarantined node rejoins only through ReattestStorage, which pairs the
// down-set removal with the health tracker's MarkUp under the membership
// lock; any other `delete(x.down, id)` or MarkUp is a half-admission. Test
// files are exempt.
var Readmit = &Analyzer{
	Name: "readmit",
	Doc:  "flag down-set removals and health MarkUp calls outside the attested readmission protocol",
	Run:  runRules,
}

// Budgetless flags offload-path retries and connection deadlines that ignore
// the query's deadline budget: an end-to-end deadline is enforceable only if
// every attempt, failover and handshake charges one budget. Sites outside any
// query (bootstrap, rebuild donors) carry an allow directive. Test files are
// exempt.
var Budgetless = &Analyzer{
	Name: "budgetless",
	Doc:  "flag budget-blind resilience.Retry/WithConnDeadline calls on the cluster/hostengine offload path",
	Run:  runRules,
}

// Rowloop keeps the executor on the vectorized pipeline: inside
// internal/sql/exec a per-row Scan pays one dispatch and one accounting touch
// per tuple where ScanBatch pays them per batch. The sanctioned row-at-a-time
// fallback carries an allow directive. Test files are exempt.
var Rowloop = &Analyzer{
	Name: "rowloop",
	Doc:  "flag per-row Relation.Scan loops in the executor (use ScanBatch or annotate the sanctioned fallback)",
	Run:  runRules,
}

// Metercharge flags a work counter charged where its work is not done: a
// priced cost with nothing under it. Test files are exempt.
var Metercharge = &Analyzer{
	Name: "metercharge",
	Doc:  "flag simtime.Meter counter charges outside the layers that do the counted work",
	Run:  runRules,
}

// runRules runs every row of pass.Analyzer over the package.
func runRules(pass *Pass) error {
	var rows []*rule
	for _, r := range rules {
		if r.analyzer == pass.Analyzer.Name && (r.scope == nil || pathInPrefixes(pass.Path, r.scope)) && !pathInPrefixes(pass.Path, r.exempt) {
			rows = append(rows, r)
		}
	}
	for _, f := range pass.Files {
		live := rows
		if fileIsTest(pass.Fset, f) {
			live = slices.DeleteFunc(slices.Clone(rows), func(r *rule) bool { return !r.tests })
		}
		if len(live) == 0 {
			continue
		}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			for _, r := range live {
				if slices.Contains(r.imports, path) {
					r.report(pass, spec.Pos(), path)
				}
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				matchUse(pass, f, live, v, v.Sel)
				ast.Inspect(v.X, visit)
				return false
			case *ast.Ident:
				matchUse(pass, f, live, v, v)
			case *ast.CallExpr:
				down, counter := isDownDelete(pass.Pkg.TypesInfo, v), meterCharge(pass, v)
				for _, r := range live {
					if r.downDelete && down {
						r.report(pass, v.Pos(), "delete")
					} else if slices.Contains(r.counters, counter) {
						r.report(pass, v.Pos(), counter)
					}
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	return nil
}

// matchUse checks one use of a name — id alone, or the selector use whose
// Sel it is — against the rows' function rules: by the function object types
// resolve it to, or by spelling when types know nothing of it.
func matchUse(pass *Pass, f *ast.File, rows []*rule, use ast.Expr, id *ast.Ident) {
	info := pass.Pkg.TypesInfo
	obj := info.Uses[id]
	fn, isFunc := obj.(*types.Func)
	if obj != nil && !isFunc || info.Defs[id] != nil {
		return
	}
	for _, r := range rows {
		for _, fr := range r.funcs {
			if isFunc && fr.matchesFunc(pass.Pkg.Module, fn) || !isFunc && fr.matchesSyntax(pass.Pkg.Module, f, use) {
				r.report(pass, use.Pos(), useName(info, use, id.Name))
				break
			}
		}
	}
}

// useName renders a matched use for diagnostics: pkg.Func for a
// package-qualified function (under the package's own name, not a local
// alias), recv.Method with the receiver's last name or type otherwise.
func useName(info *types.Info, use ast.Expr, name string) string {
	sel, ok := use.(*ast.SelectorExpr)
	if !ok {
		return name
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if pn, ok := info.Uses[x].(*types.PkgName); ok {
			return pn.Imported().Name() + "." + name
		}
		return x.Name + "." + name
	case *ast.SelectorExpr:
		return x.Sel.Name + "." + name
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && recvTypeName(fn) != "" {
		return recvTypeName(fn) + "." + name
	}
	return name
}

// isDownDelete matches the builtin delete(<x>.down, id).
func isDownDelete(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "delete" {
		return false
	}
	sel, ok := call.Args[0].(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "down"
}

// meterCharge names the internal/simtime field a call invokes any method but
// Load on (a Meter counter, when a row names it), or returns "".
func meterCharge(pass *Pass, call *ast.CallExpr) string {
	if fun, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr); fun != nil && fun.Sel.Name != "Load" {
		field, _ := ast.Unparen(fun.X).(*ast.SelectorExpr)
		if sel := pass.Pkg.TypesInfo.Selections[field]; sel != nil && sel.Obj().Pkg().Path() == pass.Pkg.Module.typesPath("internal/simtime") {
			return field.Sel.Name
		}
	}
	return ""
}

func (r *rule) report(pass *Pass, pos token.Pos, name string) {
	pass.Reportf(pos, "%s", strings.NewReplacer("{name}", name, "{pkg}", pass.Path, "{exempt}", strings.Join(r.exempt, ", ")).Replace(r.msg))
}
