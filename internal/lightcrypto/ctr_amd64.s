#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// ctrBlock loads the counter block 0^64 ‖ BE64(CX+i) into xmm: the
// byte-swapped counter goes into the low quadword, then moves up
// eight bytes, leaving zeros below it. The sum wraps mod 2^64.
#define ctrBlock(i, xmm) \
	LEAQ   i(CX), DX; \
	BSWAPQ DX; \
	MOVQ   DX, xmm; \
	PSLLO  $8, xmm

#define encRound(rk) \
	AESENC rk, X0; \
	AESENC rk, X1; \
	AESENC rk, X2; \
	AESENC rk, X3

// func keyStreamAESNI(enc *[176]byte, dst []byte, ctr uint64)
//
// X4-X14 hold the 11 round keys for the whole call; X0-X3 carry four
// counter blocks through the rounds together, so each AESENC's latency
// hides behind the other three.
TEXT ·keyStreamAESNI(SB), NOSPLIT, $0-40
	MOVQ enc+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), BX
	MOVQ ctr+32(FP), CX
	SHRQ $6, BX
	JZ   done

	MOVUPS 0(AX), X4
	MOVUPS 16(AX), X5
	MOVUPS 32(AX), X6
	MOVUPS 48(AX), X7
	MOVUPS 64(AX), X8
	MOVUPS 80(AX), X9
	MOVUPS 96(AX), X10
	MOVUPS 112(AX), X11
	MOVUPS 128(AX), X12
	MOVUPS 144(AX), X13
	MOVUPS 160(AX), X14

loop:
	ctrBlock(0, X0)
	ctrBlock(1, X1)
	ctrBlock(2, X2)
	ctrBlock(3, X3)
	ADDQ $4, CX

	PXOR X4, X0
	PXOR X4, X1
	PXOR X4, X2
	PXOR X4, X3
	encRound(X5)
	encRound(X6)
	encRound(X7)
	encRound(X8)
	encRound(X9)
	encRound(X10)
	encRound(X11)
	encRound(X12)
	encRound(X13)
	AESENCLAST X14, X0
	AESENCLAST X14, X1
	AESENCLAST X14, X2
	AESENCLAST X14, X3

	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	DECQ   BX
	JNZ    loop

done:
	RET
