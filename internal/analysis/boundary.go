package analysis

import (
	"go/ast"
	"strings"
)

// secretIdentNames match identifiers that name enclave-private key material.
// Matching is by exact lower-cased identifier, so `privilege` or `hukou`
// never trip it. Session keys are deliberately absent: distributing them is
// the monitor's job and happens over authenticated channels.
var secretIdentNames = map[string]bool{
	"huk":        true,
	"priv":       true,
	"privkey":    true,
	"privatekey": true,
	"sealkey":    true,
	"sealingkey": true,
	"secretkey":  true,
}

// transportSendFuncs are the send-side entry points of the trusted channel
// layers: SecureConn.Send and ctl's Client.Call. Anything passed here
// leaves the process.
var transportSendFuncs = map[string]bool{
	"Send": true,
	"Call": true,
}

// Boundary enforces the TEE trust boundary three ways: enclave-private
// packages may only be imported by the trusted set, "net" is confined to the
// channel layers and engine frontends (both rows in rules.go), and secret key
// material (HUK, sealing keys, private keys) never appears as an argument to
// a transport send — even encrypted channels must not carry the keys that
// define the enclave's identity.
var Boundary = &Analyzer{
	Name: "boundary",
	Doc:  "flag enclave-private imports outside the trusted set, raw net use outside the channel layers, and secret key material passed to transport sends",
	Run:  runBoundary,
}

func runBoundary(pass *Pass) error {
	runRules(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !transportSendFuncs[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if name, found := findSecretIdent(arg); found {
					pass.Reportf(arg.Pos(),
						"secret key material %q passed to transport %s; enclave-identity keys never leave the TEE, even encrypted",
						name, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// findSecretIdent scans an argument expression for an identifier naming
// secret key material.
func findSecretIdent(e ast.Expr) (string, bool) {
	var hit string
	ast.Inspect(e, func(n ast.Node) bool {
		if hit != "" {
			return false
		}
		var name string
		switch v := n.(type) {
		case *ast.Ident:
			name = v.Name
		case *ast.SelectorExpr:
			name = v.Sel.Name
		default:
			return true
		}
		if secretIdentNames[strings.ToLower(name)] {
			hit = name
			return false
		}
		return true
	})
	return hit, hit != ""
}
