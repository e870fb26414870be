// Copyright 2012 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.
//
// The key expansion below (expandKeyAsm and its two helpers) is the AES-256
// path of the Go toolchain's crypto/aes expandKeyAsm. The CBC-decrypt kernel
// and the CPUID check are this package's own.

//go:build !purego

#include "textflag.h"

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $25, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET

// func expandKeyAsm(key *byte, enc *byte, dec *byte)
//
// Expands a 32-byte key into the 15 round keys of encryption (enc) and of the
// equivalent inverse cipher (dec: enc reversed, AESIMC on the 13 inner keys).
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-24
	MOVQ            key+0(FP), AX
	MOVQ            enc+8(FP), BX
	MOVQ            dec+16(FP), DX
	MOVUPS          (AX), X0
	MOVUPS          X0, (BX)
	ADDQ            $0x10, BX
	PXOR            X4, X4
	MOVUPS          16(AX), X2
	MOVUPS          X2, (BX)
	ADDQ            $0x10, BX
	AESKEYGENASSIST $0x01, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x01, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x02, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x02, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x04, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x04, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x08, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x08, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x10, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x10, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x20, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x20, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x40, X2, X1
	CALL            expandKey256a<>(SB)

	// dec
	SUBQ   $0x10, BX
	MOVUPS (BX), X1
	MOVUPS X1, (DX)
	MOVQ   $13, CX

dec_loop:
	MOVUPS -16(BX), X1
	AESIMC X1, X0
	MOVUPS X0, 16(DX)
	SUBQ   $0x10, BX
	ADDQ   $0x10, DX
	DECQ   CX
	JNZ    dec_loop
	MOVUPS -16(BX), X0
	MOVUPS X0, 16(DX)
	RET

// func expandKey256a<>()
TEXT expandKey256a<>(SB), NOSPLIT, $0
	PSHUFD $0xff, X1, X1
	SHUFPS $0x10, X0, X4
	PXOR   X4, X0
	SHUFPS $0x8c, X0, X4
	PXOR   X4, X0
	PXOR   X1, X0
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	RET

// func expandKey256b<>()
TEXT expandKey256b<>(SB), NOSPLIT, $0
	PSHUFD $0xaa, X1, X1
	SHUFPS $0x10, X2, X4
	PXOR   X4, X2
	SHUFPS $0x8c, X2, X4
	PXOR   X4, X2
	PXOR   X1, X2
	MOVUPS X2, (BX)
	ADDQ   $0x10, BX
	RET

// DEC8 runs one inner decryption round, under the round key at off(AX), on
// the eight blocks in X0-X7.
#define DEC8(off) \
	MOVUPS off(AX), X8; \
	AESDEC X8, X0; \
	AESDEC X8, X1; \
	AESDEC X8, X2; \
	AESDEC X8, X3; \
	AESDEC X8, X4; \
	AESDEC X8, X5; \
	AESDEC X8, X6; \
	AESDEC X8, X7

// func cbcDecryptAsm(xk *byte, iv *byte, buf *byte, n int)
//
// Decrypts n runs of eight blocks at buf in place, in CBC mode under the
// AES-256 decryption schedule xk and the chaining value iv. Each run loads
// its eight ciphertext blocks, takes them through the 14 rounds together,
// XORs each with the ciphertext block before it — re-read from buf, where no
// store of the run has landed yet — and only then stores the eight; the run's
// last ciphertext block, read before those stores, chains into the next run.
// That order is what makes decryption in place exact.
TEXT ·cbcDecryptAsm(SB), NOSPLIT, $0-32
	MOVQ   xk+0(FP), AX
	MOVQ   iv+8(FP), BX
	MOVQ   buf+16(FP), DI
	MOVQ   n+24(FP), CX
	TESTQ  CX, CX
	JZ     done
	MOVUPS (BX), X9

loop:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7

	MOVUPS (AX), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7

	DEC8(16)
	DEC8(32)
	DEC8(48)
	DEC8(64)
	DEC8(80)
	DEC8(96)
	DEC8(112)
	DEC8(128)
	DEC8(144)
	DEC8(160)
	DEC8(176)
	DEC8(192)
	DEC8(208)

	MOVUPS     224(AX), X8
	AESDECLAST X8, X0
	AESDECLAST X8, X1
	AESDECLAST X8, X2
	AESDECLAST X8, X3
	AESDECLAST X8, X4
	AESDECLAST X8, X5
	AESDECLAST X8, X6
	AESDECLAST X8, X7

	PXOR   X9, X0
	MOVUPS 0(DI), X10
	PXOR   X10, X1
	MOVUPS 16(DI), X11
	PXOR   X11, X2
	MOVUPS 32(DI), X12
	PXOR   X12, X3
	MOVUPS 48(DI), X13
	PXOR   X13, X4
	MOVUPS 64(DI), X14
	PXOR   X14, X5
	MOVUPS 80(DI), X10
	PXOR   X10, X6
	MOVUPS 96(DI), X11
	PXOR   X11, X7
	MOVUPS 112(DI), X9

	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)

	ADDQ $128, DI
	DECQ CX
	JNZ  loop

done:
	RET
