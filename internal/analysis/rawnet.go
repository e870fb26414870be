package analysis

import (
	"go/ast"
	"strings"
)

// rawnetExemptPrefixes are the wrapper layers that legitimately touch raw
// connections and raw dials: resilience owns dialing (timeouts, retry,
// health accounting), transport owns deadline-armed frame I/O, and
// faultinject and adversary wrap net.Conn beneath the AEAD boundary to mount
// the one fault plan's accidents and attacks.
var rawnetExemptPrefixes = []string{
	"internal/resilience",
	"internal/transport",
	"internal/faultinject",
	"internal/adversary",
}

// rawnetDialFuncs are the package-level net dial entry points. Every one of
// them can block forever and none of them retries; distributed components
// must dial through resilience.DialTCP instead.
var rawnetDialFuncs = map[string]bool{
	"Dial":        true,
	"DialTimeout": true,
	"DialTCP":     true,
	"DialUDP":     true,
	"DialIP":      true,
	"DialUnix":    true,
}

// Rawnet flags naked network plumbing outside the sanctioned wrappers:
// package-level net.Dial* calls (no timeout, no retry, no health
// accounting — use resilience.DialTCP), and Read/Write calls on raw
// connections (no deadline arming, bypasses the AEAD frame layer — use
// transport.SecureConn). Boundary already confines the "net" import to the
// channel layers; Rawnet polices how those trusted layers use it, so a
// hung peer or dead node can never wedge a component that forgot to arm a
// deadline. Deliberate raw I/O (e.g. a deadline-guarded preamble) carries
// an //ironsafe:allow rawnet directive naming the guard. Test files are
// exempt: tests deliberately act as raw peers — hung servers, adversarial
// framing, half-open sockets.
var Rawnet = &Analyzer{
	Name: "rawnet",
	Doc:  "flag naked net.Dial* and raw conn Read/Write outside the resilience/transport wrappers",
	Run:  runRawnet,
}

func runRawnet(pass *Pass) error {
	if pathInPrefixes(pass.Path, rawnetExemptPrefixes) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		netNames := map[string]bool{}
		for _, n := range localNamesFor(f, "net") {
			netNames[n] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && netNames[id.Name] && id.Obj == nil && rawnetDialFuncs[sel.Sel.Name] {
				pass.Reportf(call.Pos(),
					"naked net.%s; dial through resilience.DialTCP so the connection gets a bounded timeout, retry policy, and health accounting",
					sel.Sel.Name)
				return true
			}
			if sel.Sel.Name != "Read" && sel.Sel.Name != "Write" {
				return true
			}
			if name, isConn := connReceiverName(sel.X); isConn {
				pass.Reportf(call.Pos(),
					"raw %s.%s outside the channel wrappers; frame I/O belongs in transport.SecureConn, or annotate a deadline-guarded exception with %s rawnet naming the guard",
					name, sel.Sel.Name, DirectivePrefix)
			}
			return true
		})
	}
	return nil
}

// connReceiverName reports whether the receiver expression names a raw
// connection. The check is syntactic (the suite has no type information),
// so it keys on naming convention: an identifier or field whose name
// contains "conn" — which every net.Conn in this codebase follows.
func connReceiverName(e ast.Expr) (string, bool) {
	var name string
	switch v := e.(type) {
	case *ast.Ident:
		name = v.Name
	case *ast.SelectorExpr:
		name = v.Sel.Name
	default:
		return "", false
	}
	if strings.Contains(strings.ToLower(name), "conn") {
		return name, true
	}
	return "", false
}
