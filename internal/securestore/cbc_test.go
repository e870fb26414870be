package securestore

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"math/rand"
	"testing"

	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
)

// The tests of the CBC-decrypt kernel: the NIST vector, agreement with
// crypto/cipher over random keys, IVs and lengths, decrypting in place as
// openPage does in the page it copied the ciphertext into, and that a store
// opens pages with the kernel wherever the
// platform has one and with crypto/cipher's decrypter only where it has not.

func kernelOrSkip(tb testing.TB, key []byte) *cbcKernel {
	tb.Helper()
	k := newCBCKernel(key)
	if k == nil {
		tb.Skip("no CBC kernel on this platform")
	}
	return k
}

func unhex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// stdlibCBCDecrypt is the oracle: crypto/cipher's decrypter into a copy.
func stdlibCBCDecrypt(tb testing.TB, key, iv, ct []byte) []byte {
	tb.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]byte, len(ct))
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(out, ct)
	return out
}

// TestCBCKernelNISTVector is SP 800-38A F.2.6, CBC-AES256.Decrypt. The vector
// is four blocks and the kernel decrypts eight at a time, so the buffer
// carries the vector's ciphertext twice; the first half must decrypt to the
// vector's plaintext and the whole to what crypto/cipher makes of it.
func TestCBCKernelNISTVector(t *testing.T) {
	key := unhex(t, "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
	iv := unhex(t, "000102030405060708090a0b0c0d0e0f")
	ct := unhex(t, "f58c4c04d6e5f1ba779eabfb5f7bfbd6"+
		"9cfc4e967edb808d679f777bc6702c7d"+
		"39f23369a9d9bacfa530e26304231461"+
		"b2eb05e2c39be9fcda6c19078c6a9d1b")
	pt := unhex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	k := kernelOrSkip(t, key)
	buf := append(append([]byte(nil), ct...), ct...)
	want := stdlibCBCDecrypt(t, key, iv, buf)
	k.cbcDecrypt(iv, buf)
	if !bytes.Equal(buf[:len(pt)], pt) {
		t.Fatalf("kernel decrypts the NIST ciphertext to\n%x\nwant\n%x", buf[:len(pt)], pt)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("kernel and crypto/cipher disagree on the second half:\n%x\n%x", buf, want)
	}
}

// TestCBCKernelMatchesStdlib decrypts random ciphertexts of 0 to 40 strides
// (a page is 32) in place under random keys and IVs and compares each with
// crypto/cipher's decryption of the same bytes. The IV slice is checked
// unchanged: the kernel chains in registers, never through it.
func TestCBCKernelMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		key, iv := make([]byte, 32), make([]byte, aes.BlockSize)
		rng.Read(key)
		rng.Read(iv)
		buf := make([]byte, cbcStride*rng.Intn(41))
		rng.Read(buf)
		k := kernelOrSkip(t, key)
		want := stdlibCBCDecrypt(t, key, iv, buf)
		ivBefore := append([]byte(nil), iv...)
		k.cbcDecrypt(iv, buf)
		if !bytes.Equal(buf, want) {
			t.Fatalf("case %d (%d bytes): kernel and crypto/cipher disagree", i, len(buf))
		}
		if !bytes.Equal(iv, ivBefore) {
			t.Fatalf("case %d: the kernel wrote into its IV", i)
		}
	}
}

// FuzzCBCDecrypt is the same oracle over fuzzed keys, IVs and ciphertexts; the
// ciphertext is cut to whole strides.
func FuzzCBCDecrypt(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 16), bytes.Repeat([]byte{3}, pager.PageSize))
	f.Add(make([]byte, 32), make([]byte, 16), make([]byte, cbcStride))
	f.Fuzz(func(t *testing.T, key, iv, ct []byte) {
		if len(key) < 32 || len(iv) < aes.BlockSize {
			return
		}
		key, iv, ct = key[:32], iv[:aes.BlockSize], ct[:len(ct)/cbcStride*cbcStride]
		k := kernelOrSkip(t, key)
		want := stdlibCBCDecrypt(t, key, iv, ct)
		k.cbcDecrypt(iv, ct)
		if !bytes.Equal(ct, want) {
			t.Fatalf("%d bytes: kernel and crypto/cipher disagree", len(ct))
		}
	})
}

// TestOnePageDecryptPath: a CBC store opens pages with the kernel where the
// platform has one — its pooled states carry no crypto/cipher decrypter for
// openPage to reach — and with that decrypter only where it has none.
func TestOnePageDecryptPath(t *testing.T) {
	e := newEnv(t)
	s := e.open(t, Options{})
	fillPages(t, s, 2)
	pc := s.getCrypto()
	defer s.putCrypto(pc)
	if haveCBCKernel != (s.cbc != nil) || (s.cbc != nil) == (pc.dec != nil) {
		t.Fatalf("kernel available %v, store kernel %v, pooled decrypter %v: want exactly one decrypt path", haveCBCKernel, s.cbc != nil, pc.dec != nil)
	}
	if _, err := s.ReadPage(1); err != nil {
		t.Fatal(err)
	}
	if g := newEnv(t).open(t, Options{GCM: true}); g.cbc != nil {
		t.Fatal("a GCM store built a CBC kernel")
	}
}

type shortKeys struct{}

func (shortKeys) DeriveKey(label string) ([]byte, error) { return make([]byte, 16), nil }

// TestOpenRefusesNonAES256Key: pages are AES-256 on every path, so a key
// source handing out another length fails the open instead of reaching the
// kernel's key expansion.
func TestOpenRefusesNonAES256Key(t *testing.T) {
	var m simtime.Meter
	if _, err := OpenWith(pager.NewMemDevice(), shortKeys{}, &memAnchor{}, &m, Options{}); err == nil {
		t.Fatal("a store opened under a 16-byte page key")
	}
}

// BenchmarkCBCDecryptPage is the decryption half of a page open, one 4 KiB
// page in place: the kernel, and crypto/cipher's decrypter it replaces
// (BenchmarkOpenPage/cbc-hmac less this is the MAC half).
func BenchmarkCBCDecryptPage(b *testing.B) {
	key := bytes.Repeat([]byte{'p'}, 32)
	iv := make([]byte, ivSize)
	page := make([]byte, pager.PageSize)
	b.Run("kernel", func(b *testing.B) {
		k := kernelOrSkip(b, key)
		b.SetBytes(pager.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.cbcDecrypt(iv, page)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		block, err := aes.NewCipher(key)
		if err != nil {
			b.Fatal(err)
		}
		dec := cipher.NewCBCDecrypter(block, iv).(cbcMode)
		b.SetBytes(pager.PageSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec.SetIV(iv)
			dec.CryptBlocks(page, page)
		}
	})
}
