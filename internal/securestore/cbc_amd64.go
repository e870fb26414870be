//go:build !purego

package securestore

// haveCBCKernel reports whether the CPU has AES-NI (CPUID leaf 1, ECX bit 25),
// which is all cbc_amd64.s needs beyond amd64's baseline SSE2.
var haveCBCKernel = hasAESNI()

func hasAESNI() bool

//go:noescape
func expandKeyAsm(key, enc, dec *byte)

//go:noescape
func cbcDecryptAsm(xk, iv, buf *byte, n int)
