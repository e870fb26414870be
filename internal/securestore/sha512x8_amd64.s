//go:build !purego

#include "textflag.h"

// The multi-buffer SHA-512 kernel of the page MAC (mac8.go): eight messages
// hashed at once, message i in 64-bit lane i of every ZMM register, so each
// instruction advances all eight round chains. It needs AVX-512F and
// AVX-512BW (VPSHUFB on ZMM); hasAVX512 says whether the CPU has both and the
// OS saves the opmask and ZMM state.

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	BTL    $27, CX // OSXSAVE: XGETBV is usable
	JCC    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x40010000, BX // AVX512F (bit 16), AVX512BW (bit 30)
	CMPL   BX, $0x40010000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $0xe6, AX // XMM, YMM, opmask, ZMM0-15 upper halves, ZMM16-31
	CMPL   AX, $0xe6
	JNE    no
	MOVB   $1, ret+0(FP)

no:
	RET

// Register map. VA-VH are the working variables a-h of all eight lanes, W0-W15
// the message schedule's sliding window of sixteen words, T0-T2 scratch.
#define VA Z0
#define VB Z1
#define VC Z2
#define VD Z3
#define VE Z4
#define VF Z5
#define VG Z6
#define VH Z7
#define W0 Z8
#define W1 Z9
#define W2 Z10
#define W3 Z11
#define W4 Z12
#define W5 Z13
#define W6 Z14
#define W7 Z15
#define W8 Z16
#define W9 Z17
#define W10 Z18
#define W11 Z19
#define W12 Z20
#define W13 Z21
#define W14 Z22
#define W15 Z23
#define T0 Z24
#define T1 Z25
#define T2 Z26
#define BSWAP Z27 // VPSHUFB mask reversing the bytes of every quadword
#define PTRS Z28  // the eight message pointers
#define LANES Z29 // 0, 64, ..., 448: lane i's offset in the lane-major state

// LOAD gathers word off/8 of the current block of all eight messages — BX is
// the block's offset, PTRS the messages — and makes it big-endian.
#define LOAD(off, w) \
	KXNORW     K1, K1, K1; \
	VPGATHERQQ off(BX)(PTRS*1), K1, w; \
	VPSHUFB    BSWAP, w, w

// ROUND is one SHA-512 round on every lane under message word w and the
// replicated round constant at k(DX). The caller rotates the names a-h, so
// the new a lands in h's register and the new e in d's:
//   T1 = h + Σ1(e) + Ch(e,f,g) + K + W;  d += T1;  h = T1 + Σ0(a) + Maj(a,b,c)
// VPTERNLOGQ computes Ch (0xca: e ? f : g), Maj (0xe8) and the three-way XORs
// of Σ0/Σ1 (0x96) in one instruction each.
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDQ     k(DX), w, T0; \
	VPADDQ     T0, h, h; \
	VPRORQ     $14, e, T0; \
	VPRORQ     $18, e, T1; \
	VPRORQ     $41, e, T2; \
	VPTERNLOGQ $0x96, T2, T1, T0; \
	VPADDQ     T0, h, h; \
	VMOVDQA64  e, T0; \
	VPTERNLOGQ $0xca, g, f, T0; \
	VPADDQ     T0, h, h; \
	VPADDQ     h, d, d; \
	VPRORQ     $28, a, T0; \
	VPRORQ     $34, a, T1; \
	VPRORQ     $39, a, T2; \
	VPTERNLOGQ $0x96, T2, T1, T0; \
	VPADDQ     T0, h, h; \
	VMOVDQA64  a, T0; \
	VPTERNLOGQ $0xe8, c, b, T0; \
	VPADDQ     T0, h, h

// SROUND extends the schedule by one word, in the slot of the word sixteen
// back — W[t] = W[t-16] + σ0(W[t-15]) + W[t-7] + σ1(W[t-2]) — and runs the
// round on it.
#define SROUND(a, b, c, d, e, f, g, h, w16, w15, w7, w2, k) \
	VPRORQ     $1, w15, T0; \
	VPRORQ     $8, w15, T1; \
	VPSRLQ     $7, w15, T2; \
	VPTERNLOGQ $0x96, T2, T1, T0; \
	VPADDQ     T0, w16, w16; \
	VPADDQ     w7, w16, w16; \
	VPRORQ     $19, w2, T0; \
	VPRORQ     $61, w2, T1; \
	VPSRLQ     $6, w2, T2; \
	VPTERNLOGQ $0x96, T2, T1, T0; \
	VPADDQ     T0, w16, w16; \
	ROUND(a, b, c, d, e, f, g, h, w16, k)

// GATHER_STATE and SCATTER_STATE move word off/8 of every lane's state
// between the lane-major state at AX and register r.
#define GATHER_STATE(off, r) \
	KXNORW     K1, K1, K1; \
	VPGATHERQQ off(AX)(LANES*1), K1, r

#define SCATTER_STATE(off, r) \
	KXNORW      K1, K1, K1; \
	VPSCATTERQQ r, K1, off(AX)(LANES*1)

// func sha512x8Asm(state *[8][8]uint64, ptrs *[8]*byte, blocks int)
//
// Runs the SHA-512 compression function over blocks consecutive 128-byte
// blocks of each of the eight messages at ptrs, lane i chaining from and back
// into state[i]. The frame holds the state a block started from, added back
// in at its end.
TEXT ·sha512x8Asm(SB), 0, $512-24
	MOVQ      state+0(FP), AX
	MOVQ      ptrs+8(FP), SI
	MOVQ      blocks+16(FP), CX
	TESTQ     CX, CX
	JZ        done
	VMOVDQU64 (SI), PTRS
	VMOVDQU64 bswap<>(SB), BSWAP
	VMOVDQU64 lanes<>(SB), LANES
	GATHER_STATE(0, VA)
	GATHER_STATE(8, VB)
	GATHER_STATE(16, VC)
	GATHER_STATE(24, VD)
	GATHER_STATE(32, VE)
	GATHER_STATE(40, VF)
	GATHER_STATE(48, VG)
	GATHER_STATE(56, VH)
	XORQ      BX, BX

block:
	VMOVDQU64 VA, 0(SP)
	VMOVDQU64 VB, 64(SP)
	VMOVDQU64 VC, 128(SP)
	VMOVDQU64 VD, 192(SP)
	VMOVDQU64 VE, 256(SP)
	VMOVDQU64 VF, 320(SP)
	VMOVDQU64 VG, 384(SP)
	VMOVDQU64 VH, 448(SP)
	LOAD(0, W0)
	LOAD(8, W1)
	LOAD(16, W2)
	LOAD(24, W3)
	LOAD(32, W4)
	LOAD(40, W5)
	LOAD(48, W6)
	LOAD(56, W7)
	LOAD(64, W8)
	LOAD(72, W9)
	LOAD(80, W10)
	LOAD(88, W11)
	LOAD(96, W12)
	LOAD(104, W13)
	LOAD(112, W14)
	LOAD(120, W15)

	// Rounds 0-15 on the message words as loaded.
	LEAQ k512<>(SB), DX
	ROUND(VA, VB, VC, VD, VE, VF, VG, VH, W0, 0)
	ROUND(VH, VA, VB, VC, VD, VE, VF, VG, W1, 64)
	ROUND(VG, VH, VA, VB, VC, VD, VE, VF, W2, 128)
	ROUND(VF, VG, VH, VA, VB, VC, VD, VE, W3, 192)
	ROUND(VE, VF, VG, VH, VA, VB, VC, VD, W4, 256)
	ROUND(VD, VE, VF, VG, VH, VA, VB, VC, W5, 320)
	ROUND(VC, VD, VE, VF, VG, VH, VA, VB, W6, 384)
	ROUND(VB, VC, VD, VE, VF, VG, VH, VA, W7, 448)
	ROUND(VA, VB, VC, VD, VE, VF, VG, VH, W8, 512)
	ROUND(VH, VA, VB, VC, VD, VE, VF, VG, W9, 576)
	ROUND(VG, VH, VA, VB, VC, VD, VE, VF, W10, 640)
	ROUND(VF, VG, VH, VA, VB, VC, VD, VE, W11, 704)
	ROUND(VE, VF, VG, VH, VA, VB, VC, VD, W12, 768)
	ROUND(VD, VE, VF, VG, VH, VA, VB, VC, W13, 832)
	ROUND(VC, VD, VE, VF, VG, VH, VA, VB, W14, 896)
	ROUND(VB, VC, VD, VE, VF, VG, VH, VA, W15, 960)

	// Rounds 16-79, sixteen per pass.
	MOVQ $4, R8

rounds:
	ADDQ $1024, DX
	SROUND(VA, VB, VC, VD, VE, VF, VG, VH, W0, W1, W9, W14, 0)
	SROUND(VH, VA, VB, VC, VD, VE, VF, VG, W1, W2, W10, W15, 64)
	SROUND(VG, VH, VA, VB, VC, VD, VE, VF, W2, W3, W11, W0, 128)
	SROUND(VF, VG, VH, VA, VB, VC, VD, VE, W3, W4, W12, W1, 192)
	SROUND(VE, VF, VG, VH, VA, VB, VC, VD, W4, W5, W13, W2, 256)
	SROUND(VD, VE, VF, VG, VH, VA, VB, VC, W5, W6, W14, W3, 320)
	SROUND(VC, VD, VE, VF, VG, VH, VA, VB, W6, W7, W15, W4, 384)
	SROUND(VB, VC, VD, VE, VF, VG, VH, VA, W7, W8, W0, W5, 448)
	SROUND(VA, VB, VC, VD, VE, VF, VG, VH, W8, W9, W1, W6, 512)
	SROUND(VH, VA, VB, VC, VD, VE, VF, VG, W9, W10, W2, W7, 576)
	SROUND(VG, VH, VA, VB, VC, VD, VE, VF, W10, W11, W3, W8, 640)
	SROUND(VF, VG, VH, VA, VB, VC, VD, VE, W11, W12, W4, W9, 704)
	SROUND(VE, VF, VG, VH, VA, VB, VC, VD, W12, W13, W5, W10, 768)
	SROUND(VD, VE, VF, VG, VH, VA, VB, VC, W13, W14, W6, W11, 832)
	SROUND(VC, VD, VE, VF, VG, VH, VA, VB, W14, W15, W7, W12, 896)
	SROUND(VB, VC, VD, VE, VF, VG, VH, VA, W15, W0, W8, W13, 960)
	DECQ R8
	JNZ  rounds

	VPADDQ 0(SP), VA, VA
	VPADDQ 64(SP), VB, VB
	VPADDQ 128(SP), VC, VC
	VPADDQ 192(SP), VD, VD
	VPADDQ 256(SP), VE, VE
	VPADDQ 320(SP), VF, VF
	VPADDQ 384(SP), VG, VG
	VPADDQ 448(SP), VH, VH
	ADDQ   $128, BX
	DECQ   CX
	JNZ    block

	SCATTER_STATE(0, VA)
	SCATTER_STATE(8, VB)
	SCATTER_STATE(16, VC)
	SCATTER_STATE(24, VD)
	SCATTER_STATE(32, VE)
	SCATTER_STATE(40, VF)
	SCATTER_STATE(48, VG)
	SCATTER_STATE(56, VH)
	VZEROUPPER

done:
	RET

DATA bswap<>+0(SB)/8, $0x0001020304050607
DATA bswap<>+8(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+16(SB)/8, $0x0001020304050607
DATA bswap<>+24(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+32(SB)/8, $0x0001020304050607
DATA bswap<>+40(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+48(SB)/8, $0x0001020304050607
DATA bswap<>+56(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswap<>(SB), RODATA|NOPTR, $64

DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $64
DATA lanes<>+16(SB)/8, $128
DATA lanes<>+24(SB)/8, $192
DATA lanes<>+32(SB)/8, $256
DATA lanes<>+40(SB)/8, $320
DATA lanes<>+48(SB)/8, $384
DATA lanes<>+56(SB)/8, $448
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// k512 holds the 80 SHA-512 round constants, each replicated into all eight
// lanes of a 64-byte row.
#define KQ(off, v) \
	DATA k512<>+(off+0)(SB)/8, v; \
	DATA k512<>+(off+8)(SB)/8, v; \
	DATA k512<>+(off+16)(SB)/8, v; \
	DATA k512<>+(off+24)(SB)/8, v; \
	DATA k512<>+(off+32)(SB)/8, v; \
	DATA k512<>+(off+40)(SB)/8, v; \
	DATA k512<>+(off+48)(SB)/8, v; \
	DATA k512<>+(off+56)(SB)/8, v

KQ(0, $0x428a2f98d728ae22)
KQ(64, $0x7137449123ef65cd)
KQ(128, $0xb5c0fbcfec4d3b2f)
KQ(192, $0xe9b5dba58189dbbc)
KQ(256, $0x3956c25bf348b538)
KQ(320, $0x59f111f1b605d019)
KQ(384, $0x923f82a4af194f9b)
KQ(448, $0xab1c5ed5da6d8118)
KQ(512, $0xd807aa98a3030242)
KQ(576, $0x12835b0145706fbe)
KQ(640, $0x243185be4ee4b28c)
KQ(704, $0x550c7dc3d5ffb4e2)
KQ(768, $0x72be5d74f27b896f)
KQ(832, $0x80deb1fe3b1696b1)
KQ(896, $0x9bdc06a725c71235)
KQ(960, $0xc19bf174cf692694)
KQ(1024, $0xe49b69c19ef14ad2)
KQ(1088, $0xefbe4786384f25e3)
KQ(1152, $0x0fc19dc68b8cd5b5)
KQ(1216, $0x240ca1cc77ac9c65)
KQ(1280, $0x2de92c6f592b0275)
KQ(1344, $0x4a7484aa6ea6e483)
KQ(1408, $0x5cb0a9dcbd41fbd4)
KQ(1472, $0x76f988da831153b5)
KQ(1536, $0x983e5152ee66dfab)
KQ(1600, $0xa831c66d2db43210)
KQ(1664, $0xb00327c898fb213f)
KQ(1728, $0xbf597fc7beef0ee4)
KQ(1792, $0xc6e00bf33da88fc2)
KQ(1856, $0xd5a79147930aa725)
KQ(1920, $0x06ca6351e003826f)
KQ(1984, $0x142929670a0e6e70)
KQ(2048, $0x27b70a8546d22ffc)
KQ(2112, $0x2e1b21385c26c926)
KQ(2176, $0x4d2c6dfc5ac42aed)
KQ(2240, $0x53380d139d95b3df)
KQ(2304, $0x650a73548baf63de)
KQ(2368, $0x766a0abb3c77b2a8)
KQ(2432, $0x81c2c92e47edaee6)
KQ(2496, $0x92722c851482353b)
KQ(2560, $0xa2bfe8a14cf10364)
KQ(2624, $0xa81a664bbc423001)
KQ(2688, $0xc24b8b70d0f89791)
KQ(2752, $0xc76c51a30654be30)
KQ(2816, $0xd192e819d6ef5218)
KQ(2880, $0xd69906245565a910)
KQ(2944, $0xf40e35855771202a)
KQ(3008, $0x106aa07032bbd1b8)
KQ(3072, $0x19a4c116b8d2d0c8)
KQ(3136, $0x1e376c085141ab53)
KQ(3200, $0x2748774cdf8eeb99)
KQ(3264, $0x34b0bcb5e19b48a8)
KQ(3328, $0x391c0cb3c5c95a63)
KQ(3392, $0x4ed8aa4ae3418acb)
KQ(3456, $0x5b9cca4f7763e373)
KQ(3520, $0x682e6ff3d6b2b8a3)
KQ(3584, $0x748f82ee5defb2fc)
KQ(3648, $0x78a5636f43172f60)
KQ(3712, $0x84c87814a1f0ab72)
KQ(3776, $0x8cc702081a6439ec)
KQ(3840, $0x90befffa23631e28)
KQ(3904, $0xa4506cebde82bde9)
KQ(3968, $0xbef9a3f7b2c67915)
KQ(4032, $0xc67178f2e372532b)
KQ(4096, $0xca273eceea26619c)
KQ(4160, $0xd186b8c721c0c207)
KQ(4224, $0xeada7dd6cde0eb1e)
KQ(4288, $0xf57d4f7fee6ed178)
KQ(4352, $0x06f067aa72176fba)
KQ(4416, $0x0a637dc5a2c898a6)
KQ(4480, $0x113f9804bef90dae)
KQ(4544, $0x1b710b35131c471b)
KQ(4608, $0x28db77f523047d84)
KQ(4672, $0x32caab7b40c72493)
KQ(4736, $0x3c9ebe0a15c9bebc)
KQ(4800, $0x431d67c49c100d4c)
KQ(4864, $0x4cc5d4becb3e42b6)
KQ(4928, $0x597f299cfc657e2a)
KQ(4992, $0x5fcb6fab3ad6faec)
KQ(5056, $0x6c44198c4a475817)
GLOBL k512<>(SB), RODATA|NOPTR, $5120
