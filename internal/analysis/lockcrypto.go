package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// lockcryptoScope is the package subtree where page crypto under the store
// mutex is outlawed: the batched scan pipeline's whole point is that AES and
// HMAC work happens outside the critical section, on a worker pool.
const lockcryptoScope = "internal/securestore"

// lockcryptoPkgFuncs lists the bulk-crypto entry points per standard-library
// package; a call to any of them while the store mutex is held serializes
// every concurrent reader behind the cipher.
var lockcryptoPkgFuncs = map[string]map[string]bool{
	"crypto/aes":    {"NewCipher": true},
	"crypto/cipher": {"NewCBCEncrypter": true, "NewCBCDecrypter": true, "NewGCM": true},
	"crypto/hmac":   {"New": true},
}

// lockcryptoLocalHelpers names the store's own page seal/open helpers, which
// wrap the primitives above and are equally forbidden under the mutex —
// getCrypto among them: it keys an HMAC whenever the pool has no idle state —
// the read path's fetch-and-open step (fetchOpen), the CBC-decrypt kernel's
// key expansion and entry point, which do openPage's AES work without
// crypto/cipher, and the MAC kernel's key setup and group
// MAC (pageMAC8), which do its HMAC work without crypto/hmac. Tree hashing
// (leafMAC/nodeMAC/rootTag) is deliberately NOT listed: the Merkle tree is
// mutex-protected state, so hashing it under the lock is inherent.
var lockcryptoLocalHelpers = map[string]bool{
	"sealPage":     true,
	"sealPages":    true,
	"encryptPage":  true,
	"openPage":     true,
	"openMACed":    true,
	"openGroup":    true,
	"fetchOpen":    true,
	"pageMAC":      true,
	"pageMAC8":     true,
	"getCrypto":    true,
	"newCBCKernel": true,
	"newMACKernel": true,
	"cbcDecrypt":   true,
}

// Lockcrypto flags AES/HMAC page crypto performed while holding the secure
// store's mutex. Sealing or opening a 4 KiB page costs tens of microseconds
// of cipher+MAC work; doing it inside the store's critical section turns the
// mutex into a pipeline-wide stall — exactly the serialization the batched
// read path (ReadPages) exists to avoid. The scan pipeline's contract is:
// snapshot under the lock, decrypt and MAC on an unlocked worker pool,
// re-lock only to verify and publish.
//
// The check is lexical and per-function: it tracks mu.Lock()/mu.Unlock()
// call positions inside each function body (a deferred Unlock keeps the
// function locked to its end) and flags crypto calls at lock depth > 0.
// Helpers whose CALLERS hold the mutex have no lock events of their own and
// are therefore not flagged: readPageLocked opens its page through fetchOpen
// under the lock the rebuild walks hold across a whole walk, because a walk
// must see one committed state. The analyzer catches the lock-and-seal pattern where
// both appear in one function, which is how the regression it guards against
// actually gets written. Test files are exempt: tests lock deliberately to
// probe blocking behaviour.
var Lockcrypto = &Analyzer{
	Name: "lockcrypto",
	Doc:  "flag AES/HMAC page crypto while holding securestore's Store.mu; seal/open belongs outside the critical section",
	Run:  runLockcrypto,
}

func runLockcrypto(pass *Pass) error {
	if !pathInPrefixes(pass.Path, []string{lockcryptoScope}) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		imports := importsOf(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			lockcryptoCheckFunc(pass, fn, imports)
		}
	}
	return nil
}

// lockEvent is one mutex transition at a source position: +1 for Lock,
// -1 for a non-deferred Unlock.
type lockEvent struct {
	pos   token.Pos
	delta int
}

type cryptoCall struct {
	pos  token.Pos
	name string
}

func lockcryptoCheckFunc(pass *Pass, fn *ast.FuncDecl, imports map[string]string) {
	// First pass: positions of deferred calls. A deferred mu.Unlock() runs at
	// function exit, so it must not close the lexical lock region.
	deferred := map[token.Pos]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call != nil {
			deferred[d.Call.Pos()] = true
		}
		return true
	})

	var events []lockEvent
	var calls []cryptoCall
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && lockcryptoLocalHelpers[id.Name] {
			calls = append(calls, cryptoCall{pos: call.Pos(), name: id.Name})
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if isMuField(sel.X) {
				events = append(events, lockEvent{pos: call.Pos(), delta: +1})
			}
			return true
		case "Unlock", "RUnlock":
			if isMuField(sel.X) && !deferred[call.Pos()] {
				events = append(events, lockEvent{pos: call.Pos(), delta: -1})
			}
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if path, imported := imports[id.Name]; imported {
				if funcs := lockcryptoPkgFuncs[path]; funcs != nil && funcs[sel.Sel.Name] {
					calls = append(calls, cryptoCall{pos: call.Pos(), name: id.Name + "." + sel.Sel.Name})
				}
				return true
			}
		}
		if lockcryptoLocalHelpers[sel.Sel.Name] {
			calls = append(calls, cryptoCall{pos: call.Pos(), name: sel.Sel.Name})
		}
		return true
	})
	if len(calls) == 0 || len(events) == 0 {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })

	depth, next := 0, 0
	for _, c := range calls {
		for next < len(events) && events[next].pos < c.pos {
			depth += events[next].delta
			if depth < 0 {
				depth = 0
			}
			next++
		}
		if depth > 0 {
			pass.Reportf(c.pos,
				"page crypto (%s) while holding the store mutex stalls every concurrent reader; seal/open outside the critical section (or annotate the site with %s lockcrypto)",
				c.name, DirectivePrefix)
		}
	}
}

// isMuField reports whether expr denotes a field or variable named "mu"
// (s.mu, t.s.mu, or a bare mu identifier).
func isMuField(expr ast.Expr) bool {
	switch x := expr.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "mu"
	case *ast.Ident:
		return x.Name == "mu"
	}
	return false
}
