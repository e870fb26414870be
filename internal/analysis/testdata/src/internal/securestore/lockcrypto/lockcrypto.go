// Package lockcrypto seeds page-crypto-under-mutex violations for the
// lockcrypto analyzer's golden test: every flagged line carries a want
// expectation, and the unlocked or helper-only shapes must stay silent.
package lockcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha512"
	"sync"
)

type store struct {
	mu     sync.Mutex
	encKey []byte
	macKey []byte
}

type rstore struct {
	mu sync.RWMutex
}

func (s *store) sealPage(idx uint32, plain []byte) ([]byte, []byte, error) {
	return plain, nil, nil
}

func (s *store) openPage(idx uint32, record []byte) ([]byte, []byte, error) {
	return record, nil, nil
}

// macUnderDeferredLock holds the mutex to function end, so the HMAC runs
// inside the critical section.
func (s *store) macUnderDeferredLock(data []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	mac := hmac.New(sha512.New, s.macKey) // want "while holding the store mutex"
	mac.Write(data)
	return mac.Sum(nil)
}

// cipherBetweenLockAndUnlock is flagged only inside the explicit region.
func (s *store) cipherBetweenLockAndUnlock(plain []byte) {
	s.mu.Lock()
	block, _ := aes.NewCipher(s.encKey) // want "while holding the store mutex"
	_ = block
	s.mu.Unlock()
	after, _ := aes.NewCipher(s.encKey) // unlocked: fine
	iv := make([]byte, 16)
	cipher.NewCBCEncrypter(after, iv).CryptBlocks(plain, plain)
}

// helperUnderLock calls the store's own seal/open wrappers under the mutex.
func (s *store) helperUnderLock(idx uint32, plain []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, _, err := s.sealPage(idx, plain); err != nil { // want "while holding the store mutex"
		return err
	}
	_, _, err := s.openPage(idx, plain) // want "while holding the store mutex"
	return err
}

func (r *rstore) openPage(idx uint32, record []byte) ([]byte, []byte, error) {
	return record, nil, nil
}

// readLockedCrypto shows an RWMutex read lock serializes ciphers just the
// same.
func (r *rstore) readLockedCrypto(record []byte) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, _, _ = r.openPage(0, record) // want "while holding the store mutex"
}

// sealOutsideThenPublish is the sanctioned shape: crypto first, lock only to
// publish. No diagnostics.
func (s *store) sealOutsideThenPublish(idx uint32, plain []byte) error {
	record, _, err := s.sealPage(idx, plain)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = record
	return nil
}

// callersHoldMu documents the analyzer's lexical limit: helpers without lock
// events of their own are not flagged even though callers hold the mutex.
func (s *store) callersHoldMu(idx uint32, record []byte) ([]byte, error) {
	plain, _, err := s.openPage(idx, record)
	return plain, err
}

type pageCrypto struct{}

func (s *store) getCrypto() *pageCrypto   { return &pageCrypto{} }
func (s *store) putCrypto(pc *pageCrypto) {}

// pooledStateUnderLock takes the pooled crypto state under the mutex: with the
// pool empty that keys an HMAC inside the critical section.
func (s *store) pooledStateUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	pc := s.getCrypto() // want "while holding the store mutex"
	s.putCrypto(pc)
}

type cbcKernel struct{}

func newCBCKernel(key []byte) *cbcKernel       { return &cbcKernel{} }
func (k *cbcKernel) cbcDecrypt(iv, buf []byte) {}

// kernelUnderLock expands the CBC kernel's key and decrypts with it under the
// mutex: the AES work openPage does, without crypto/cipher.
func (s *store) kernelUnderLock(iv, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := newCBCKernel(s.encKey) // want "while holding the store mutex"
	k.cbcDecrypt(iv, buf)       // want "while holding the store mutex"
}

// pooledStateThenLock is the sanctioned shape, as readPagesAt has it: take the
// state and open pages off the lock, re-lock to verify, hand the state back.
func (s *store) pooledStateThenLock(idx uint32, record []byte) {
	pc := s.getCrypto()
	defer s.putCrypto(pc)
	_, _, _ = s.openPage(idx, record)
	s.mu.Lock()
	defer s.mu.Unlock()
}
