package analysis

import (
	"go/ast"
)

// Plainflow proves plaintext confinement dataflow-style: values produced by
// the secure store's decrypt/verify read path (verified page plaintext) and
// by TEE key-derivation or the transport's ticket ratchet (key material) must
// pass an AEAD seal or MAC sanitizer before reaching a transport write, a log
// call, or a raw device write. The engine is the taint lattice in taint.go:
// intraprocedural fixpoint plus one-call-deep summaries, so a helper that
// forwards its argument to WriteBlock taints its callers' calls too.
//
// Design choices that bound noise: unknown calls produce CLEAN results (the
// alternative — taint-preserving by default — drowns real findings), and
// sinks are the repo's actual egress points rather than every Write method
// in the universe. transport.SecureConn.Send is a sink for key material
// only: sending plaintext through it is the point (it seals internally);
// sending the session key through it would be self-referential key
// disclosure.
var Plainflow = &Analyzer{
	Name: "plainflow",
	Doc:  "verified plaintext and TEE key material must be sealed/MACed before transport, logs, or raw device writes",
	Run:  runPlainflow,
}

// plainflowRules is the shared rule table; tests build engines against it
// directly.
var plainflowRules = &taintRules{
	sources: []*funcRule{
		// Secure-store read path: results carry verified plaintext.
		{name: "ReadPage", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, result: 0},
		{name: "ReadPages", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, result: 0},
		// openPage opens a record into a pooled page, result 0. The record
		// it was handed is tainted too: a read releases it once opened, and
		// the pool hands it on as someone's plaintext page.
		{name: "openPage", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, result: 0, taintsArg: 3},
		{name: "openPageGCM", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, result: 0, taintsArg: 3},
		// openMACed is openPage's second half; openGroup opens a group of a
		// batch into its pages and releases its records the same way.
		{name: "openMACed", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, result: 0, taintsArg: 3},
		{name: "openGroup", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, taintsArg: 3},
		{name: "openGroup", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, taintsArg: 4},
		// fetchOpen is a read's fetch-and-open step: it opens the pages into out.
		{name: "fetchOpen", modPrefixes: []string{"internal/securestore"}, taint: TaintPlaintext, taintsArg: 3},
		// TEE key derivation and unsealing: results are key material.
		{name: "DeriveKey", modPrefixes: []string{"internal/securestore", "internal/tee"}, taint: TaintKey, result: 0},
		{name: "DeriveStorageKey", modPrefixes: []string{"internal/tee"}, taint: TaintKey, result: 0},
		{name: "DeriveSealedKey", modPrefixes: []string{"internal/tee"}, taint: TaintKey, result: 0},
		{name: "Unseal", modPrefixes: []string{"internal/tee"}, taint: TaintKey, result: 0},
		{name: "deriveKey", modPrefixes: []string{"internal/securestore", "internal/tee"}, taint: TaintKey, result: 0},
		{name: "deriveSealKey", modPrefixes: []string{"internal/tee"}, taint: TaintKey, result: 0},
		// Channel resumption: the ticket a handshake leaves opens the next
		// channel to the same peer.
		{name: "deriveTicket", modPrefixes: []string{"internal/transport"}, taint: TaintKey, result: 0},
	},
	sanitizers: []*funcRule{
		// AEAD sealing / MAC computation launder taint: the result is
		// ciphertext or an authenticator, safe for any channel.
		{name: "sealPage", anyPkg: true},
		{name: "sealPageGCM", anyPkg: true},
		{name: "sealPages", anyPkg: true},
		{name: "encryptPage", anyPkg: true},
		{name: "pageMAC", anyPkg: true},
		{name: "pageMAC8", anyPkg: true},
		{name: "aeadSeal", anyPkg: true},
		{name: "Seal", modPrefixes: []string{"internal/tee"}, stdPaths: []string{"crypto/cipher"}},
		{name: "Sum", stdPaths: []string{"crypto/sha256", "crypto/hmac", "hash"}},
		{name: "Sum256", stdPaths: []string{"crypto/sha256"}},
	},
	send: &sinkRule{
		bad:  TaintPlaintext | TaintKey,
		what: "channel send",
		fix:  "hand a sealed record, a digest or an index to another goroutine — not decrypted contents or keys",
	},
	sinks: []*sinkRule{
		{
			funcRule: funcRule{name: "WriteBlock", anyPkg: true},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "raw device write",
			fix:  "seal the page (sealPage/AEAD) before writing it to the device",
		},
		{
			funcRule: funcRule{name: "RPMBWrite", anyPkg: true},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "RPMB frame write",
			fix:  "RPMB frames must carry MACed counters/digests, not raw secrets",
		},
		{
			funcRule: funcRule{name: "Send", recv: "SecureConn"},
			arg:      -1, bad: TaintKey,
			what: "secure-channel send",
			fix:  "key material must never leave the TEE, even on a sealed channel",
		},
		{
			funcRule: funcRule{name: "Call", recv: "Client"},
			arg:      -1, bad: TaintKey,
			what: "control-plane RPC",
			fix:  "key material must never ride the control plane",
		},
		{
			funcRule: funcRule{name: "Write", stdPaths: []string{"net"}},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "raw network write",
			fix:  "route through transport.SecureConn so the payload is sealed",
		},
		{
			funcRule: funcRule{name: "Print*", stdPaths: []string{"log", "fmt"}},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "log/print call",
			fix:  "log lengths, digests, or page IDs — never decrypted contents or keys",
		},
		{
			funcRule: funcRule{name: "Fprint*", stdPaths: []string{"fmt"}},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "formatted write",
			fix:  "log lengths, digests, or page IDs — never decrypted contents or keys",
		},
		{
			funcRule: funcRule{name: "Fatal*", stdPaths: []string{"log"}},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "log call",
			fix:  "log lengths, digests, or page IDs — never decrypted contents or keys",
		},
		{
			funcRule: funcRule{name: "Panic*", stdPaths: []string{"log"}},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "log call",
			fix:  "log lengths, digests, or page IDs — never decrypted contents or keys",
		},
		{
			funcRule: funcRule{name: "Output", stdPaths: []string{"log"}},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "log call",
			fix:  "log lengths, digests, or page IDs — never decrypted contents or keys",
		},
		{
			funcRule: funcRule{name: "Logf", anyPkg: true},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "log call",
			fix:  "log lengths, digests, or page IDs — never decrypted contents or keys",
		},
		{
			funcRule: funcRule{name: "logf", anyPkg: true},
			arg:      -1, bad: TaintPlaintext | TaintKey,
			what: "log call",
			fix:  "log lengths, digests, or page IDs — never decrypted contents or keys",
		},
	},
}

func runPlainflow(pass *Pass) error {
	for _, f := range pass.Files {
		if fileIsTest(pass.Fset, f) {
			// Test code prints fixtures and synthetic keys on purpose.
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			eng := newTaintEngine(pass.Pkg, f, plainflowRules, true)
			eng.run(fd.Body, nil)
			for _, hit := range eng.checkSinks(fd.Body) {
				via := ""
				if hit.via != "" {
					via = " via call to " + hit.via
				}
				pass.Reportf(hit.pos, "%s reaches %s%s; %s", hit.taint, hit.rule.what, via, hit.rule.fix)
			}
		}
	}
	return nil
}
