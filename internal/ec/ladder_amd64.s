#include "textflag.h"

// ladderB1CLMUL runs the whole ladder of ec.go's ladderX in one call,
// for a curve with √b = 1: the loop of ladder.steps, with each swap and
// ladder.step in assembly. Its products and fold are those of
// gf2m/clmul_amd64.s, recast so that an element stays in two vector
// registers, [e0, e1] and [e2, 0], from one field operation to the
// next, and so that the fold needs no general-purpose registers.
//
// The state lives in *s: X0 at 0, Z0 at 24, X1 at 48 and Z1 at 72. An
// element is read and written as one 16-byte access at its offset and
// one 8-byte access 16 bytes on, so every load of a stored element is
// forwarded from the store buffer. A product leaves its six words as
// X4 = [c0, c1], X5 = [c2, c3] and X6 = [c4, c5]; the fold leaves the
// element in X4-X5, ready to store or to multiply again.
//
// product9 is the 3×3-word schoolbook. One level of 3-word Karatsuba
// (six word products, Dyka–Langendoerfer) in its place, with the
// operand sums built by shuffles or from separate loads, ran the
// ladder no faster on a shared 2-vCPU Intel Xeon host (family 6,
// model 143), where the loop is bound by throughput: the three saved
// products per multiplication came back as shuffles, loads and XORs.

// loadA reads the element at o(DI) into X0-X1, loadB into X2-X3.
#define loadA(o) \
	MOVOU o(DI), X0; \
	MOVQ  o+16(DI), X1

#define loadB(o) \
	MOVOU o(DI), X2; \
	MOVQ  o+16(DI), X3

// store writes the element in X4-X5 to o(DI).
#define store(o) \
	MOVOU X4, o(DI); \
	MOVQ  X5, o+16(DI)

// product9 is the 3×3-word schoolbook of X0-X1 by X2-X3: nine word
// products, summed by column. Clobbers X7-X10.
#define product9 \
	MOVOU     X0, X4; \
	PCLMULQDQ $0x00, X2, X4; \
	MOVOU     X0, X5; \
	PCLMULQDQ $0x11, X2, X5; \
	MOVOU     X1, X6; \
	PCLMULQDQ $0x00, X3, X6; \
	MOVOU     X0, X7; \
	PCLMULQDQ $0x10, X2, X7; \
	MOVOU     X0, X8; \
	PCLMULQDQ $0x01, X2, X8; \
	PXOR      X8, X7; \
	MOVOU     X0, X9; \
	PCLMULQDQ $0x00, X3, X9; \
	MOVOU     X1, X10; \
	PCLMULQDQ $0x00, X2, X10; \
	PXOR      X10, X9; \
	PXOR      X9, X5; \
	MOVOU     X0, X8; \
	PCLMULQDQ $0x01, X3, X8; \
	MOVOU     X1, X9; \
	PCLMULQDQ $0x10, X2, X9; \
	PXOR      X9, X8; \
	spread(X7, X8, X9)

// spread adds m1 at word 1 and m3 at word 3: X4 ^= m1·X,
// X5 ^= m1/X + m3·X (one PALIGNR), X6 ^= m3/X. Clobbers m1, m3 and t.
#define spread(m1, m3, t) \
	MOVOU   m3, t; \
	PALIGNR $8, m1, t; \
	PXOR    t, X5; \
	PSLLO   $8, m1; \
	PXOR    m1, X4; \
	PSRLO   $8, m3; \
	PXOR    m3, X6

// square spreads X0-X1 into its square: three word squares.
#define square \
	MOVOU     X0, X4; \
	PCLMULQDQ $0x00, X4, X4; \
	MOVOU     X0, X5; \
	PCLMULQDQ $0x11, X5, X5; \
	MOVOU     X1, X6; \
	PCLMULQDQ $0x00, X6, X6

// reduceFold reduces X4-X6 mod f(x) into X4 = [r0, r1] and
// X5 = [r2, 0]. X11 holds [P, 0xc9] with
// P = x^192 mod f = x^29·(x^7+x^6+x^3+1), and X12 holds [2^35 - 1, 0].
// c3, c4 and c5 fold down by one PCLMULQDQ each with P, then word 2's
// bits 35-63, h, fold into word 0 as h·(x^7+x^6+x^3+1) = h·0xc9 by one
// more. Clobbers X6-X8.
#define reduceFold \
	MOVOU     X5, X7; \
	PCLMULQDQ $0x01, X11, X7; \
	MOVOU     X6, X8; \
	PCLMULQDQ $0x00, X11, X8; \
	PCLMULQDQ $0x01, X11, X6; \
	PXOR      X7, X4; \
	MOVOU     X8, X7; \
	PSLLO     $8, X7; \
	PXOR      X7, X4; \
	PSRLO     $8, X8; \
	PXOR      X8, X5; \
	PXOR      X6, X5; \
	MOVOU     X5, X8; \
	PSRLQ     $35, X8; \
	PCLMULQDQ $0x10, X11, X8; \
	PXOR      X8, X4; \
	PAND      X12, X5

// cswap exchanges the elements at o0(DI) and o1(DI) where X10 is all
// ones and leaves them where it is zero: t = (a ^ b) & mask, then
// a ^= t and b ^= t. Clobbers X0-X4.
#define cswap(o0, o1) \
	MOVOU o0(DI), X0; \
	MOVOU o1(DI), X1; \
	MOVOU X0, X4; \
	PXOR  X1, X4; \
	PAND  X10, X4; \
	PXOR  X4, X0; \
	PXOR  X4, X1; \
	MOVOU X0, o0(DI); \
	MOVOU X1, o1(DI); \
	MOVQ  o0+16(DI), X2; \
	MOVQ  o1+16(DI), X3; \
	MOVOU X2, X4; \
	PXOR  X3, X4; \
	PAND  X10, X4; \
	PXOR  X4, X2; \
	PXOR  X4, X3; \
	MOVQ  X2, o0+16(DI); \
	MOVQ  X3, o1+16(DI)

// swap exchanges (X0, Z0) and (X1, Z1) under the mask in AX, all ones
// or zero. Clobbers X0-X4 and X10.
#define swap \
	MOVQ       AX, X10; \
	PUNPCKLQDQ X10, X10; \
	cswap(0, 48); \
	cswap(24, 72)

// step is ec.go's ladder.step for √b = 1: slot 1 becomes
// (x·Z3 + t1·t2, Z3) with Z3 = (t1 + t2)², t1 = X0·Z1, t2 = X1·Z0 and
// the sum reduced once; slot 0 doubles to ((X0² + Z0²)², X0²·Z0²).
// t1, t1·t2 and X0² wait in X13-X15. x(P) is at (R11).
#define step \
	loadA(0); \
	loadB(72); \
	product9; \
	reduceFold; \
	MOVOU X4, X14; \
	MOVOU X5, X15; \
	loadA(48); \
	loadB(24); \
	product9; \
	reduceFold; \
	MOVOU X4, X2; \
	MOVOU X5, X3; \
	MOVOU X14, X0; \
	MOVOU X15, X1; \
	product9; \
	MOVOU X4, X13; \
	MOVOU X5, X14; \
	MOVOU X6, X15; \
	PXOR  X2, X0; \
	PXOR  X3, X1; \
	square; \
	reduceFold; \
	store(72); \
	MOVOU X4, X2; \
	MOVOU X5, X3; \
	MOVOU (R11), X0; \
	MOVQ  16(R11), X1; \
	product9; \
	PXOR  X13, X4; \
	PXOR  X14, X5; \
	PXOR  X15, X6; \
	reduceFold; \
	store(48); \
	loadA(0); \
	square; \
	reduceFold; \
	MOVOU X4, X14; \
	MOVOU X5, X15; \
	loadA(24); \
	square; \
	reduceFold; \
	MOVOU X4, X2; \
	MOVOU X5, X3; \
	MOVOU X14, X0; \
	MOVOU X15, X1; \
	product9; \
	reduceFold; \
	store(24); \
	PXOR  X2, X0; \
	PXOR  X3, X1; \
	square; \
	reduceFold; \
	store(0)

// foldConsts holds reduceFold's X11 and X12.
DATA foldConsts<>+0(SB)/8, $0x1920000000
DATA foldConsts<>+8(SB)/8, $0xc9
DATA foldConsts<>+16(SB)/8, $0x7ffffffff
DATA foldConsts<>+24(SB)/8, $0
GLOBL foldConsts<>(SB), RODATA|NOPTR, $32

// func ladderB1CLMUL(s *LadderState, x *gf2m.Element, k *modn.Scalar)
//
// Bit i of k is (k[i>>6] >> (i&63)) & 1: the word index and the shift
// depend on i alone. Before each step the slots swap under the mask
// -(bit ^ previous bit), and after the last one under -(last bit), as
// in ladder.steps. The bit only enters the swap mask, so both bit
// values run the same instructions on the same addresses; the loop's
// one branch counts i down.
TEXT ·ladderB1CLMUL(SB), NOSPLIT, $0-24
	MOVQ s+0(FP), DI
	MOVQ x+8(FP), R11
	MOVQ k+16(FP), SI
	MOVOU foldConsts<>(SB), X11
	MOVOU foldConsts<>+16(SB), X12
	MOVQ $162, CX
	XORQ R10, R10

loop:
	MOVQ CX, AX
	SHRQ $6, AX
	MOVQ (SI)(AX*8), R9
	SHRQ CX, R9
	ANDQ $1, R9
	MOVQ R9, AX
	XORQ R10, AX
	MOVQ R9, R10
	NEGQ AX
	swap
	step
	DECQ CX
	JGE  loop

	MOVQ R10, AX
	NEGQ AX
	swap
	RET
