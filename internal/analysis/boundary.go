package analysis

import (
	"go/ast"
	"strings"
)

// enclavePrivatePaths hold TEE-private state: the TrustZone HUK and sealing
// keys, the SGX sealing/attestation keys, RPMB write keys. Only the trusted
// computing base may import them.
var enclavePrivatePaths = map[string]bool{
	"ironsafe/internal/tee/sgx":       true,
	"ironsafe/internal/tee/trustzone": true,
}

// boundaryTrustedPrefixes is the trusted set: packages that legitimately
// hold enclave handles. The module root ("") is the public facade that
// wires the simulated cluster together; cmd binaries provision and attest
// platforms.
var boundaryTrustedPrefixes = []string{
	"", // module root package (cluster facade)
	"internal/tee",
	"internal/monitor",
	"internal/securestore",
	"internal/storageengine",
	"internal/hostengine",
	// chaos boots simulated TrustZone storage devices for the power-cut
	// crash sweep; it drives the boot/derive APIs, never key material.
	"internal/chaos",
	"cmd",
}

// netTrustedPrefixes may import "net": the AEAD transport, the
// PSK-authenticated control channel, the engine frontends that accept
// connections and immediately wrap them, and the cmd binaries that bind
// listeners. Everything else — the query engine, policy, storage, and TEE
// layers — must have no way to open a raw socket, because a raw socket is
// a plaintext exfiltration channel that bypasses the AEAD boundary.
var netTrustedPrefixes = []string{
	"internal/transport",
	"internal/ctl",
	"internal/hostengine",
	"internal/storageengine",
	// resilience wraps dials/deadlines for the channel layers; faultinject
	// and adversary wrap net.Conn to inject faults and protocol-aware
	// attacks beneath the AEAD boundary; chaos composes them (it installs
	// wrapped conns into clusters but never performs raw I/O itself —
	// rawnet still applies to it).
	"internal/resilience",
	"internal/faultinject",
	"internal/adversary",
	"internal/chaos",
	"cmd",
}

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

// Boundary enforces the TEE trust boundary three ways: (1) enclave-private
// packages may only be imported by the trusted set, (2) raw "net" sockets
// are confined to the channel layers and engine frontends, and (3) secret
// key material (HUK, sealing keys, private keys) must never appear as an
// argument to a transport send function — even encrypted channels must not
// carry the keys that define the enclave's identity.
var Boundary = &Analyzer{
	Name: "boundary",
	Doc:  "flag enclave-private imports outside the trusted set, raw net use outside the channel layers, and secret key material passed to transport sends",
	Run:  runBoundary,
}

func pathInPrefixes(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if p == "" {
			if path == "" {
				return true
			}
			continue
		}
		if hasPrefixPath(path, p) {
			return true
		}
	}
	return false
}

func runBoundary(pass *Pass) error {
	trusted := pathInPrefixes(pass.Path, boundaryTrustedPrefixes)
	netOK := pathInPrefixes(pass.Path, netTrustedPrefixes) || pass.Path == ""
	for _, f := range pass.Files {
		if !trusted {
			for path := range enclavePrivatePaths {
				if spec := importSpec(f, path); spec != nil {
					pass.Reportf(spec.Pos(),
						"package %s is outside the trusted set but imports enclave-private %s; route through the monitor or storage engine APIs",
						pass.Path, path)
				}
			}
		}
		if !netOK {
			if spec := importSpec(f, "net"); spec != nil {
				pass.Reportf(spec.Pos(),
					"package %s must not open raw network channels; all traffic goes through internal/transport or internal/ctl",
					pass.Path)
			}
		}
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
