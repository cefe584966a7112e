#include "textflag.h"

// The GF(2^163) kernels below multiply with PCLMULQDQ, a 64×64-bit
// carry-less multiply whose latency does not depend on its operands.
//
// An Element is read as X0 = [e0, 0] and X1 = [e1, e2], the other
// operand as X2 and X3, and written back as one 8-byte store of r0
// and one 16-byte store of [r1, r2]. That is how the compiler copies
// an Element, so a result the caller copies on, or feeds straight into
// the next product, is forwarded from the store buffer instead of
// stalling on a load that spans two stores. A product leaves its six
// words as X4 = [c0, c1], X5 = [c2, c3] and X6 = [c4, c5].

// load reads the Element at (SI) into X0-X1 and the one at (DX) into
// X2-X3.
#define load \
	MOVQ  (SI), X0; \
	MOVOU 8(SI), X1; \
	MOVQ  (DX), X2; \
	MOVOU 8(DX), X3

// product9 is the 3×3-word schoolbook: nine word products, summed by
// column. Clobbers X7-X12.
#define product9 \
	MOVOU     X0, X4; \
	PCLMULQDQ $0x00, X2, X4; \
	MOVOU     X1, X5; \
	PCLMULQDQ $0x00, X3, X5; \
	MOVOU     X1, X6; \
	PCLMULQDQ $0x11, X3, X6; \
	MOVOU     X0, X7; \
	PCLMULQDQ $0x00, X3, X7; \
	MOVOU     X1, X8; \
	PCLMULQDQ $0x00, X2, X8; \
	MOVOU     X0, X9; \
	PCLMULQDQ $0x10, X3, X9; \
	MOVOU     X1, X10; \
	PCLMULQDQ $0x01, X2, X10; \
	MOVOU     X1, X11; \
	PCLMULQDQ $0x10, X3, X11; \
	MOVOU     X1, X12; \
	PCLMULQDQ $0x01, X3, X12; \
	PXOR      X8, X7; \
	PXOR      X10, X9; \
	PXOR      X9, X5; \
	PXOR      X12, X11; \
	spread(X7, X11, X8)

// spread adds m1 at word 1 and m3 at word 3: X4 ^= m1·X, X5 ^= m1/X
// and m3·X, X6 ^= m3/X. Clobbers m1, m3 and t.
#define spread(m1, m3, t) \
	MOVOU m1, t; \
	PSLLO $8, t; \
	PXOR  t, X4; \
	PSRLO $8, m1; \
	PXOR  m1, X5; \
	MOVOU m3, t; \
	PSLLO $8, t; \
	PXOR  t, X5; \
	PSRLO $8, m3; \
	PXOR  m3, X6

// square spreads X0-X1 into its square: three word squares, no cross
// terms.
#define square \
	MOVOU     X0, X4; \
	PCLMULQDQ $0x00, X4, X4; \
	MOVOU     X1, X5; \
	PCLMULQDQ $0x00, X5, X5; \
	MOVOU     X1, X6; \
	PCLMULQDQ $0x11, X6, X6

// foldTail XORs h·(x^7 + x^6 + x^3 + 1) into r for an h below 2^57,
// where the product stays within one word. Clobbers h.
#define foldTail(h, r) \
	XORQ h, r; \
	SHLQ $3, h; \
	XORQ h, r; \
	SHLQ $3, h; \
	XORQ h, r; \
	SHLQ $1, h; \
	XORQ h, r

// reduceFold reduces X4-X6 mod f(x) = x^163 + x^7 + x^6 + x^3 + 1
// into R8 = r0 and X4 = [r1, r2]. x^192 = x^29·x^163 ≡
// x^29·(x^7+x^6+x^3+1) = P, so c3, c4 and c5 fold down by one
// PCLMULQDQ each with P: c3·P into words 0-1, c4·P into words 1-2 and
// c5·P (c5 < 2^5) into word 2. Word 2's bits 35-63 then fold once more
// into word 0 in registers.
#define reduceFold \
	MOVQ       $0x1920000000, AX; \
	MOVQ       AX, X13; \
	MOVOU      X5, X7; \
	PCLMULQDQ  $0x01, X13, X7; \
	MOVOU      X6, X8; \
	PCLMULQDQ  $0x00, X13, X8; \
	PCLMULQDQ  $0x01, X13, X6; \
	PXOR       X7, X4; \
	MOVOU      X8, X9; \
	PSLLO      $8, X9; \
	PXOR       X9, X4; \
	PSRLO      $8, X8; \
	PXOR       X8, X5; \
	PXOR       X6, X5; \
	MOVQ       X5, AX; \
	MOVQ       AX, BX; \
	SHRQ       $35, BX; \
	MOVQ       $0x7ffffffff, DX; \
	ANDQ       DX, AX; \
	MOVQ       X4, R8; \
	foldTail(BX, R8); \
	PSRLO      $8, X4; \
	MOVQ       AX, X5; \
	PUNPCKLQDQ X5, X4

// store writes R8 = r0 and X4 = [r1, r2] to the Element at (DI).
#define store \
	MOVQ  R8, (DI); \
	MOVOU X4, 8(DI)

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func mulCLMUL(r, a, b *Element)
TEXT ·mulCLMUL(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	load
	product9
	reduceFold
	store
	RET

// func sqrCLMUL(r, a *Element)
TEXT ·sqrCLMUL(SB), NOSPLIT, $0-16
	MOVQ  r+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  (SI), X0
	MOVOU 8(SI), X1
	square
	reduceFold
	store
	RET

// func reduceCLMUL(r *Element, c *[6]uint64)
TEXT ·reduceCLMUL(SB), NOSPLIT, $0-16
	MOVQ  r+0(FP), DI
	MOVQ  c+8(FP), SI
	MOVOU (SI), X4
	MOVOU 16(SI), X5
	MOVOU 32(SI), X6
	reduceFold
	store
	RET

// func mulAccCLMUL(acc *[6]uint64, a, b *Element)
TEXT ·mulAccCLMUL(SB), NOSPLIT, $0-24
	MOVQ  acc+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	load
	product9
	MOVOU (DI), X0
	MOVOU 16(DI), X1
	MOVOU 32(DI), X2
	PXOR  X0, X4
	PXOR  X1, X5
	PXOR  X2, X6
	MOVOU X4, (DI)
	MOVOU X5, 16(DI)
	MOVOU X6, 32(DI)
	RET
