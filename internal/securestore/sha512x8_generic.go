//go:build !amd64 || purego

package securestore

// haveMACKernel is false off amd64 and under the purego build tag: page MACs
// are computed by crypto/hmac.
const haveMACKernel = false

func sha512x8Asm(state *[8][8]uint64, ptrs *[8]*byte, blocks int) {
	panic("securestore: no MAC kernel on this platform")
}
