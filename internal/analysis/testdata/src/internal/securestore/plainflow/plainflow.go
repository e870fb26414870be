// Package plainflow is golden testdata: the package path sits under
// internal/securestore so the path-scoped source rules treat the
// self-defined ReadPage/DeriveKey as the real secure-store API.
package plainflow

import (
	"fmt"
	"log"
)

type Store struct{}

func (s *Store) ReadPage(id uint32) ([]byte, error) { return make([]byte, 8), nil }

func (s *Store) sealPage(p []byte) []byte { return append([]byte(nil), p...) }

type pageCrypto struct{}

// openPage decrypts record in place, as the real one does: the page it
// returns is a view of the buffer it was handed.
func (s *Store) openPage(pc *pageCrypto, idx uint32, record []byte) (plain, mac []byte, err error) {
	return record[:8], record[8:], nil
}

func DeriveKey(label string) []byte { return make([]byte, 32) }

func WriteBlock(id uint32, b []byte) error { return nil }

type SecureConn struct{}

func (c *SecureConn) Send(b []byte) error { return nil }

// Direct flow: plaintext straight into a raw device write.
func direct(s *Store) {
	p, _ := s.ReadPage(1)
	WriteBlock(1, p) // want "verified plaintext reaches raw device write"
}

// Sanitized flow: sealing launders the taint.
func sanitized(s *Store) {
	p, _ := s.ReadPage(1)
	WriteBlock(1, s.sealPage(p))
}

// Propagation through append and a composite literal.
func viaAppend(s *Store) {
	p, _ := s.ReadPage(1)
	buf := append([]byte{0xAA}, p...)
	log.Printf("page=%x", buf) // want "verified plaintext reaches log/print call"
}

// Propagation through copy.
func viaCopy(s *Store) {
	p, _ := s.ReadPage(1)
	dst := make([]byte, len(p))
	copy(dst, p)
	WriteBlock(2, dst) // want "verified plaintext reaches raw device write"
}

// Cross-function, one call deep: the helper's parameter reaches the sink
// inside it, so tainted arguments are flagged at the call site.
func writeRaw(b []byte) {
	WriteBlock(3, b)
}

func crossFuncSink(s *Store) {
	p, _ := s.ReadPage(1)
	writeRaw(p) // want "via call to writeRaw"
}

// Cross-function, one call deep: the helper's result carries the source's
// taint out to its callers.
func fetch(s *Store) []byte {
	p, _ := s.ReadPage(3)
	return p
}

func crossFuncSource(s *Store) {
	fmt.Printf("%v\n", fetch(s)) // want "verified plaintext reaches log/print call"
}

// Key material must not ride the secure channel (it seals with that very
// key); page plaintext through it is the design and stays silent.
func sendPlainOK(s *Store, c *SecureConn) {
	p, _ := s.ReadPage(9)
	c.Send(p)
}

func sendKeyBad(c *SecureConn) {
	k := DeriveKey("session")
	c.Send(k) // want "key material reaches secure-channel send"
}

func logKeyBad() {
	k := DeriveKey("storage")
	log.Println(k) // want "key material reaches log/print call"
}

// In-place open: once openPage has run, the record buffer it was handed holds
// the page. Writing that buffer back, logging it or handing it to another
// goroutine is a leak even though the result was never touched.
func openedRecordWrittenBack(s *Store, record []byte) {
	_, _, err := s.openPage(nil, 4, record)
	if err != nil {
		return
	}
	WriteBlock(4, record) // want "verified plaintext reaches raw device write"
}

func openedRecordLogged(s *Store, record []byte) {
	s.openPage(nil, 4, record)
	log.Printf("record=%x", record[:16]) // want "verified plaintext reaches log/print call"
}

func openedRecordSent(s *Store, record []byte, out chan []byte) {
	plain, _, _ := s.openPage(nil, 4, record)
	out <- record // want "verified plaintext reaches channel send"
	out <- plain  // want "verified plaintext reaches channel send"
}

// Sealed again, the page may go anywhere; and a record that was only read,
// never opened, is ciphertext still.
func openedRecordResealed(s *Store, record []byte, out chan []byte) {
	plain, _, _ := s.openPage(nil, 4, record)
	sealed := s.sealPage(plain)
	WriteBlock(4, sealed)
	out <- s.sealPage(record)
}

func unopenedRecordForwarded(record []byte, out chan []byte) {
	WriteBlock(5, record)
	out <- record
}
