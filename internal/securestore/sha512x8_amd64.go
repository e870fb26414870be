//go:build !purego

package securestore

// haveMACKernel reports whether sha512x8_amd64.s runs here: the CPU has
// AVX-512F and AVX-512BW and the OS saves the opmask and ZMM state.
var haveMACKernel = hasAVX512()

func hasAVX512() bool

//go:noescape
func sha512x8Asm(state *[8][8]uint64, ptrs *[8]*byte, blocks int)
