package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Earlyack enforces the ingest pipeline's acked-write contract at the source
// level: a record's ack (`pending.deliver`) may only be sent after the group
// commit that contains it has durably succeeded. Syntactically, every
// `.deliver(` call in internal/ingest must be preceded — within the same
// function — by a nil-check of an error produced by a commit-family call
// (applyBatch / Apply / Commit / ExecuteBatch). An ack sent with no durable
// commit in sight (acking on enqueue, acking before the journal write, acking
// a batch that was never applied) is exactly the bug class that turns a crash
// into silent data loss: the client moves on, the record evaporates.
//
// The check is a syntactic dominance approximation: it demands evidence of a
// checked commit lexically before the delivery, not a full CFG proof. The escape hatch is the usual
// //ironsafe:allow earlyack directive with a rationale. The `deliver` method
// itself (the channel-send primitive) and test files are exempt.
var Earlyack = &Analyzer{
	Name: "earlyack",
	Doc:  "flag ingest ack deliveries not preceded by a checked durable commit",
	Run:  runEarlyack,
}

// earlyackCommitCallees are the calls whose checked success counts as
// durable-commit evidence on the ingest write path.
var earlyackCommitCallees = map[string]bool{
	"applyBatch":   true,
	"Apply":        true,
	"Commit":       true,
	"ExecuteBatch": true,
}

func runEarlyack(pass *Pass) error {
	if !hasPrefixPath(pass.Path, "internal/ingest") {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				earlyackCheckFunc(pass, fn)
			}
		}
	}
	return nil
}

func earlyackCheckFunc(pass *Pass, fn *ast.FuncDecl) {
	// The delivery primitive itself is the sanctioned sender; the analyzer
	// governs who may call it.
	if fn.Name.Name == "deliver" {
		return
	}

	// Pass 1: collect nil-checks of errors assigned from commit-family calls.
	commitErrs := map[string]token.Pos{} // error ident -> assignment position
	var checks []token.Pos               // positions of if-statements testing such an error
	recordAssign := func(st *ast.AssignStmt) {
		for _, rhs := range st.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !earlyackIsCommitCall(call) {
				continue
			}
			if len(st.Lhs) == 0 {
				continue
			}
			// The error is conventionally the last result.
			if id, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
				commitErrs[id.Name] = st.Pos()
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			recordAssign(st)
		case *ast.IfStmt:
			// `if err := n.Commit(); err != nil` binds in its own Init, which
			// Inspect has not visited yet — record it first.
			if init, ok := st.Init.(*ast.AssignStmt); ok {
				recordAssign(init)
			}
			if name, ok := earlyackNilCheck(st.Cond); ok {
				// The binding must precede the condition — an if-init assign
				// sits between st.Pos() and st.Cond.Pos(), so compare against
				// the condition, not the statement.
				if apos, bound := commitErrs[name]; bound && apos < st.Cond.Pos() {
					checks = append(checks, st.Pos())
				}
			}
		}
		return true
	})

	// Pass 2: every deliver call needs a check before it.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "deliver" {
			return true
		}
		for _, cpos := range checks {
			if cpos < call.Pos() {
				return true
			}
		}
		pass.Reportf(call.Pos(),
			"ack delivered without a checked durable commit before it; an ack must follow its group commit's journal write (or annotate with %s earlyack)",
			DirectivePrefix)
		return true
	})
}

// earlyackIsCommitCall reports whether the call's callee name is in the
// commit family, whatever the receiver.
func earlyackIsCommitCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return earlyackCommitCallees[fun.Name]
	case *ast.SelectorExpr:
		return earlyackCommitCallees[fun.Sel.Name]
	}
	return false
}

// earlyackNilCheck matches `x == nil` / `x != nil` and returns x's name.
func earlyackNilCheck(cond ast.Expr) (string, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return "", false
	}
	x, y := be.X, be.Y
	if id, ok := y.(*ast.Ident); ok && id.Name == "nil" {
		if xid, ok := x.(*ast.Ident); ok {
			return xid.Name, true
		}
	}
	if id, ok := x.(*ast.Ident); ok && id.Name == "nil" {
		if yid, ok := y.(*ast.Ident); ok {
			return yid.Name, true
		}
	}
	return "", false
}
