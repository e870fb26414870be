package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Failopen flags errors from calls that carry a fail-closed obligation when
// the failure is not handled. The blunt shapes: the call as a bare statement
// or under go/defer, all its results assigned to blanks, or its final (error)
// result blanked. The subtle ones, where the error LOOKS handled because it
// has a name: discarded without a read, overwritten before any check, or
// routed into a log call while execution continues. A dropped error from any
// of them turns a detected attack (or an empty entropy read) into silent
// acceptance.
var Failopen = &Analyzer{
	Name: "failopen",
	Doc:  "errors from seal/open/verification/attestation/policy calls and rand.Read must fail closed, not be discarded, dropped, shadowed, or merely logged",
	Run:  runFailopen,
}

// failopenGuards match the calls whose error results carry a fail-closed
// obligation: the seal/open pair, which guards every ciphertext boundary,
// every Verify* (proofs, MACs, certificates, Merkle roots) and Attest*
// (quotes, reports), crypto/rand.Read, and the monitor's policy entry points.
// One call deep, so does any module-internal function whose returned error
// comes straight from one of them (failSummary): wrapping VerifyProof in a
// helper does not launder the obligation.
var failopenGuards = []*funcRule{
	{name: "Seal", anyPkg: true},
	{name: "Open", anyPkg: true},
	{name: "Unseal", anyPkg: true},
	{name: "Verify*", anyPkg: true},
	{name: "Attest*", anyPkg: true},
	{name: "Read", stdPaths: []string{"crypto/rand"}},
	{name: "Decide", modPrefixes: []string{""}},
	{name: "Evaluate", modPrefixes: []string{""}},
	{name: "Authorize", modPrefixes: []string{""}},
}

// failopenGuardName reports whether call produces a guarded error, with a
// display name for diagnostics (rand.Read for a standard-library function).
func failopenGuardName(pkg *Package, f *ast.File, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pkg.TypesInfo, call)
	if directGuard(pkg, f, call) {
		if fn != nil && fn.Type().(*types.Signature).Recv() == nil {
			if _, isMod := pkg.Module.modRelOf(fn.Pkg()); !isMod {
				return fn.Pkg().Name() + "." + fn.Name(), true
			}
		}
		return calleeName(call), true
	}
	// One call deep: a module-internal function that just returns a guarded
	// call's error is itself guarded.
	if fn != nil && pkg.Module != nil {
		if _, isMod := pkg.Module.modRelOf(fn.Pkg()); isMod && pkg.Module.failSummary(fn) {
			return fn.Name(), true
		}
	}
	return "", false
}

// directGuard reports whether call matches a row of failopenGuards.
func directGuard(pkg *Package, f *ast.File, call *ast.CallExpr) bool {
	return slices.ContainsFunc(failopenGuards, func(r *funcRule) bool {
		return ruleMatches(pkg.Module, pkg.TypesInfo, f, r, call)
	})
}

// failSummary reports (cached) whether fn's returned error originates from
// a directly-guarded call. Computed without consulting other summaries —
// the obligation propagates exactly one call level.
func (m *Module) failSummary(fn *types.Func) bool {
	if m.failSums == nil {
		m.failSums = map[*types.Func]bool{}
	}
	if v, ok := m.failSums[fn]; ok {
		return v
	}
	m.failSums[fn] = false // self-recursion guard
	if ref := m.funcFor(fn); ref != nil {
		m.failSums[fn] = failSumCompute(ref)
	}
	return m.failSums[fn]
}

func failSumCompute(ref *funcDeclRef) bool {
	fd := ref.decl
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	last := fd.Type.Results.List[len(fd.Type.Results.List)-1]
	if id, ok := last.Type.(*ast.Ident); !ok || id.Name != "error" {
		return false
	}
	file := fileOf(ref.pkg, fd.Pos())
	// Objects assigned (in last position) from a guarded call.
	guardedObjs := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !directGuard(ref.pkg, file, call) {
			return true
		}
		if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && ref.pkg.TypesInfo != nil {
			if obj := ref.pkg.TypesInfo.Defs[id]; obj != nil {
				guardedObjs[obj] = true
			} else if obj := ref.pkg.TypesInfo.Uses[id]; obj != nil {
				guardedObjs[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 || found {
			return !found
		}
		switch r := ast.Unparen(ret.Results[len(ret.Results)-1]).(type) {
		case *ast.CallExpr:
			if directGuard(ref.pkg, file, r) {
				found = true
			}
		case *ast.Ident:
			if ref.pkg.TypesInfo != nil && guardedObjs[ref.pkg.TypesInfo.Uses[r]] {
				found = true
			}
		}
		return !found
	})
	return found
}

func runFailopen(pass *Pass) error {
	for _, f := range pass.Files {
		checkDiscards(pass, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFailopenFunc(pass, f, fd)
			}
		}
	}
	return nil
}

// checkDiscards reports the blunt shapes, where no name ever holds the error.
func checkDiscards(pass *Pass, f *ast.File) {
	guard := func(call *ast.CallExpr) (string, bool) { return failopenGuardName(pass.Pkg, f, call) }
	ast.Inspect(f, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if name, ok := guard(call); ok {
					pass.Reportf(call.Pos(), "result of %s call discarded; seal/verify failures must be handled", name)
				}
			}
		case *ast.GoStmt:
			if name, ok := guard(stmt.Call); ok {
				pass.Reportf(stmt.Call.Pos(), "result of %s call discarded by go statement", name)
			}
		case *ast.DeferStmt:
			if name, ok := guard(stmt.Call); ok {
				pass.Reportf(stmt.Call.Pos(), "result of %s call discarded by defer", name)
			}
		case *ast.AssignStmt:
			call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
			if len(stmt.Rhs) != 1 || !ok || !isBlank(stmt.Lhs[len(stmt.Lhs)-1]) {
				return true
			}
			name, ok := guard(call)
			if !ok {
				return true
			}
			if !slices.ContainsFunc(stmt.Lhs, func(e ast.Expr) bool { return !isBlank(e) }) {
				pass.Reportf(call.Pos(), "all results of %s call assigned to blank; seal/verify failures must be handled", name)
			} else {
				// `n, _ := rand.Read(buf)`: the final (error) slot blanked.
				pass.Reportf(call.Pos(), "error result of %s call assigned to blank; seal/verify failures must be handled", name)
			}
		}
		return true
	})
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// guardedAssign is one `err := Verify...(...)` site under scrutiny.
type guardedAssign struct {
	call *ast.CallExpr
	name string
	obj  types.Object
	end  token.Pos // end of the assignment statement
}

func checkFailopenFunc(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	info := pass.Pkg.TypesInfo
	if info == nil {
		return
	}

	// Idents that are plain write targets (LHS of an assignment).
	writes := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					writes[id] = true
				}
			}
		}
		return true
	})

	var guarded []guardedAssign
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := failopenGuardName(pass.Pkg, f, call)
		if !ok {
			return true
		}
		id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
		if !ok || id.Name == "_" { // a blanked error is checkDiscards' finding
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !isErrorType(obj.Type()) {
			return true
		}
		guarded = append(guarded, guardedAssign{call: call, name: name, obj: obj, end: as.End()})
		return true
	})
	if len(guarded) == 0 {
		return
	}

	named := map[types.Object]bool{}
	for _, obj := range namedResults(pass.Pkg, fd) {
		if obj != nil {
			named[obj] = true
		}
	}

	for _, g := range guarded {
		checkGuardedUse(pass, fd, g, writes, named)
	}
}

// isErrorType reports whether t is the error interface (or unknown —
// tolerated as non-error to stay quiet on broken code).
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

func checkGuardedUse(pass *Pass, fd *ast.FuncDecl, g guardedAssign, writes map[*ast.Ident]bool, named map[types.Object]bool) {
	info := pass.Pkg.TypesInfo

	// Next write to the variable after this assignment bounds the window in
	// which the error must be checked.
	nextWrite := token.Pos(-1)
	var reads []*ast.Ident
	bareReturn := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			if v.Pos() <= g.end {
				return true
			}
			if info.Uses[v] != g.obj && info.Defs[v] != g.obj {
				return true
			}
			if writes[v] {
				if nextWrite == token.Pos(-1) || v.Pos() < nextWrite {
					nextWrite = v.Pos()
				}
			} else {
				reads = append(reads, v)
			}
		case *ast.ReturnStmt:
			if len(v.Results) == 0 && v.Pos() > g.end && named[g.obj] {
				bareReturn = true
			}
		}
		return true
	})
	if nextWrite != token.Pos(-1) {
		inWindow := reads[:0]
		for _, r := range reads {
			if r.Pos() < nextWrite {
				inWindow = append(inWindow, r)
			}
		}
		reads = inWindow
	}
	if bareReturn {
		// The named error result is propagated. (A bare return before an
		// overwrite returns ours, one after it the new value; lexically we
		// cannot tell them apart.)
		return
	}
	if len(reads) == 0 {
		if nextWrite != token.Pos(-1) {
			pass.Reportf(g.call.Pos(), "error from %s is overwritten before being checked; verification must fail closed", g.name)
		} else {
			pass.Reportf(g.call.Pos(), "error from %s is assigned but never checked; verification must fail closed", g.name)
		}
		return
	}
	// One genuinely-handled read clears the obligation; logged reads and
	// checks whose failure branch falls through do not.
	for _, r := range reads {
		if classifyErrRead(fd.Body, r) == readHandled {
			return
		}
	}
	pass.Reportf(g.call.Pos(), "error from %s is logged (or its failure branch falls through) without failing closed; return, abort, or record the failure", g.name)
}

type readKind int

const (
	readHandled  readKind = iota // propagated, returned, or fail-closed branch
	readLogged                   // argument to a log-like call only
	readFailOpen                 // checked, but the failure branch continues
)

// classifyErrRead decides how one use of the error contributes to handling.
func classifyErrRead(body ast.Node, id *ast.Ident) readKind {
	path := pathTo(body, id)
	for i := len(path) - 1; i >= 0; i-- {
		switch anc := path[i].(type) {
		case *ast.CallExpr:
			// Innermost call with id among its arguments decides: a log-like
			// callee is a log read; anything else (fmt.Errorf wrap, handler,
			// channel of errors) is real handling.
			if exprListContainsPos(anc.Args, id.Pos()) {
				if logLikeCall(anc) {
					return readLogged
				}
				return readHandled
			}
		case *ast.IfStmt:
			if anc.Cond != nil && anc.Cond.Pos() <= id.Pos() && id.Pos() < anc.Cond.End() {
				if failureBranchClosed(anc, id) {
					return readHandled
				}
				return readFailOpen
			}
		case *ast.ReturnStmt:
			return readHandled
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			return readHandled // conservative: switch-based handling counts
		}
	}
	return readHandled
}

// exprListContainsPos reports whether pos falls inside any expression of
// the list.
func exprListContainsPos(list []ast.Expr, pos token.Pos) bool {
	for _, e := range list {
		if e.Pos() <= pos && pos < e.End() {
			return true
		}
	}
	return false
}

// logLikeCall matches non-terminating log/print calls. Fatal*/Panic*
// terminate, so they are fail-closed, not log-like.
func logLikeCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	for _, p := range []string{"Print", "print", "Log", "log", "Warn", "Info", "Debug", "Trace"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return name == "Output"
}

// failureBranchClosed locates the branch taken when the check FAILS
// (err != nil → then-branch; err == nil → else-branch) and reports whether
// it fails closed.
func failureBranchClosed(ifStmt *ast.IfStmt, id *ast.Ident) bool {
	polarity := condPolarity(ifStmt.Cond, id)
	var failure []ast.Stmt
	switch polarity {
	case condErrNotNil:
		failure = ifStmt.Body.List
	case condErrNil:
		switch e := ifStmt.Else.(type) {
		case *ast.BlockStmt:
			failure = e.List
		case *ast.IfStmt:
			failure = []ast.Stmt{e}
		case nil:
			// Inverted assertion: `if err == nil { t.Error(...) }` treats
			// SUCCESS as the bug (negative tests, tamper-detection checks).
			// If the then-branch records a failure, the error was handled
			// deliberately; otherwise the failure path falls through.
			return stmtsRecordFailure(ifStmt.Body.List)
		}
	}
	return stmtsFailClosed(failure)
}

type condKind int

const (
	condErrNotNil condKind = iota
	condErrNil
)

// condPolarity decides which branch is the failure path. Unrecognized
// shapes (errors.Is, bare error use) default to "then is the failure
// branch", which matches the idioms in this repo.
func condPolarity(cond ast.Expr, id *ast.Ident) condKind {
	kind := condErrNotNil
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		hasNil := isNilIdent(be.X) || isNilIdent(be.Y)
		containsID := (be.X.Pos() <= id.Pos() && id.Pos() < be.X.End()) ||
			(be.Y.Pos() <= id.Pos() && id.Pos() < be.Y.End())
		if hasNil && containsID {
			if be.Op == token.EQL {
				kind = condErrNil
			}
			return false
		}
		return true
	})
	return kind
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// stmtsFailClosed reports whether the statements contain any fail-closed
// action: return, panic, os.Exit, Fatal*/Panic*, a branch statement, an
// assignment (recording the failure), or a channel send. A branch whose
// only actions are log calls — or an empty branch — fails open.
func stmtsFailClosed(stmts []ast.Stmt) bool {
	closed := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ReturnStmt, *ast.BranchStmt, *ast.SendStmt, *ast.AssignStmt, *ast.IncDecStmt:
				closed = true
			case *ast.CallExpr:
				if failClosedCall(v) {
					closed = true
				}
			}
			return !closed
		})
		if closed {
			return true
		}
	}
	return false
}

// failClosedCall matches calls that terminate or durably record the
// failure: panic/exit, Fatal*/Panic*, and testing's Error*/Fail*/Skip*.
func failClosedCall(call *ast.CallExpr) bool {
	name := calleeName(call)
	if name == "panic" || name == "Exit" || name == "Goexit" {
		return true
	}
	for _, p := range []string{"Fatal", "fatal", "Panic", "Error", "Fail", "Skip"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// stmtsRecordFailure is the narrower check for inverted assertions: only
// explicit failure-recording calls count, not arbitrary assignments.
func stmtsRecordFailure(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && failClosedCall(call) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// pathTo returns the ancestor chain from root down to target (inclusive),
// or nil if target is not under root.
func pathTo(root, target ast.Node) []ast.Node {
	var stack, found []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if found != nil {
			return false
		}
		if n == target {
			found = append(append([]ast.Node{}, stack...), n)
			return false
		}
		stack = append(stack, n)
		return true
	})
	return found
}
