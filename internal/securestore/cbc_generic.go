//go:build !amd64 || purego

package securestore

// haveCBCKernel is false off amd64 and under the purego build tag: pages are
// decrypted by crypto/cipher's CBC decrypter.
const haveCBCKernel = false

func expandKeyAsm(key, enc, dec *byte) { panic("securestore: no CBC kernel on this platform") }

func cbcDecryptAsm(xk, iv, buf *byte, n int) { panic("securestore: no CBC kernel on this platform") }
