// Package sealerr seeds one violation per blunt failopen shape (a guarded
// call whose error no name ever holds), plus the checked forms that must stay
// silent.
package sealerr

import (
	"crypto/rand"
	"io"
)

type vault struct{}

func (vault) Seal(dst, nonce, plaintext, ad []byte) ([]byte, error) { return nil, nil }
func (vault) Open(dst, nonce, ciphertext, ad []byte) ([]byte, error) {
	return nil, nil
}
func (vault) Verify() error              { return nil }
func (vault) AttestQuote() error         { return nil }
func Verify(sig []byte) error            { return nil }
func AttestAll() error                   { return nil }
func Unseal(blob []byte) ([]byte, error) { return nil, nil }

func discarded(v vault, r io.Reader) {
	v.Seal(nil, nil, nil, nil) // want `result of Seal call discarded`
	v.Open(nil, nil, nil, nil) // want `result of Open call discarded`
	v.Verify()                 // want `result of Verify call discarded`
	v.AttestQuote()            // want `result of AttestQuote call discarded`
	Verify(nil)                // want `result of Verify call discarded`
	Unseal(nil)                // want `result of Unseal call discarded`

	buf := make([]byte, 32)
	rand.Read(buf)         // want `result of rand\.Read call discarded`
	_, _ = rand.Read(buf)  // want `all results of rand\.Read call assigned to blank`
	n, _ := rand.Read(buf) // want `error result of rand\.Read call assigned to blank`
	_ = n
	_, _ = v.Open(nil, nil, nil, nil) // want `all results of Open call assigned to blank`

	go AttestAll()   // want `result of AttestAll call discarded by go statement`
	defer v.Verify() // want `result of Verify call discarded by defer`

	// Checked forms: no diagnostics.
	if err := Verify(nil); err != nil {
		panic(err)
	}
	if _, err := rand.Read(buf); err != nil {
		panic(err)
	}
	ct, err := v.Seal(nil, nil, nil, nil)
	_, _ = ct, err

	// Read on an arbitrary io.Reader is not a security boundary.
	r.Read(buf)
}
