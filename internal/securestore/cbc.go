package securestore

import "crypto/aes"

// cbcStride is what one pass of the kernel decrypts: eight AES blocks. A page
// is 32 strides.
const cbcStride = 8 * aes.BlockSize

// cbcKernel decrypts AES-256-CBC in place with eight blocks in flight
// (cbc_amd64.s). CBC decryption, unlike encryption, has no dependency between
// blocks, so each AESDEC's latency hides behind the other seven blocks' where
// crypto/cipher's decrypter waits out one block at a time. It holds only the
// decryption key schedule — the 15 round keys of the equivalent inverse
// cipher, expanded at open with AESKEYGENASSIST and AESIMC, no table lookups —
// so one kernel serves every worker of a store at once.
type cbcKernel struct {
	dec [15 * aes.BlockSize]byte
}

// newCBCKernel expands a 32-byte key for the kernel. It returns nil where the
// kernel does not run — off amd64, on a CPU without AES-NI, under the purego
// build tag — and pages are decrypted by crypto/cipher's CBC decrypter there.
func newCBCKernel(key []byte) *cbcKernel {
	if !haveCBCKernel {
		return nil
	}
	if len(key) != 32 {
		panic("securestore: CBC kernel key is not 32 bytes")
	}
	k := new(cbcKernel)
	var enc [len(k.dec)]byte
	expandKeyAsm(&key[0], &enc[0], &k.dec[0])
	clear(enc[:])
	return k
}

// cbcDecrypt decrypts buf in place in CBC mode under iv. len(buf) must be a
// multiple of cbcStride.
func (k *cbcKernel) cbcDecrypt(iv, buf []byte) {
	if len(iv) != aes.BlockSize || len(buf)%cbcStride != 0 {
		panic("securestore: cbcDecrypt: IV not one block or buffer not whole strides")
	}
	if len(buf) > 0 {
		cbcDecryptAsm(&k.dec[0], &iv[0], &buf[0], len(buf)/cbcStride)
	}
}
