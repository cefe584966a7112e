#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// step advances four xorshift128+ states held as s0 in A and s1 in B
// by one draw, using T and U as scratch:
//   a ^= a<<23; a ^= a>>17; a ^= b ^ (b>>26)
// leaves the new s1 in A. The new s0 is the old s1, still in B, so the
// caller swaps the roles of A and B for the next draw; the draw itself
// is A+B.
#define step(A, B, T, U) \
	VPSLLQ $23, A, T \
	VPXOR  T, A, A   \
	VPSRLQ $17, A, T \
	VPXOR  T, A, A   \
	VPSRLQ $26, B, U \
	VPXOR  U, B, U   \
	VPXOR  U, A, A

// flagZero ORs into F an all-ones word for each lane whose draw A+B
// has its top 53 bits zero: the u > 0 rejection of Gaussian.Sample.
#define flagZero(A, B, T, Z, F) \
	VPADDQ   A, B, T \
	VPSRLQ   $11, T, T \
	VPCMPEQQ Z, T, T \
	VPOR     T, F, F

// func skipPairsAVX2(st *laneStates, pairs int) uint32
//
// Lanes 0-3 run in Y0 (s0) and Y2 (s1), lanes 4-7 in Y1 and Y3. Per
// pair the u draw leaves s0 in Y2/Y3 and s1 in Y0/Y1; the v draw,
// whose value is unused, swaps them back.
TEXT ·skipPairsAVX2(SB), NOSPLIT, $0-20
	MOVQ st+0(FP), DI
	MOVQ pairs+8(FP), CX
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VPXOR   Y15, Y15, Y15
	VPXOR   Y12, Y12, Y12
	VPXOR   Y13, Y13, Y13
	TESTQ   CX, CX
	JLE     done

loop:
	step(Y0, Y2, Y4, Y5)
	step(Y1, Y3, Y6, Y7)
	flagZero(Y0, Y2, Y8, Y15, Y12)
	flagZero(Y1, Y3, Y9, Y15, Y13)
	step(Y2, Y0, Y4, Y5)
	step(Y3, Y1, Y6, Y7)
	DECQ CX
	JNZ  loop

done:
	VMOVDQU    Y0, 0(DI)
	VMOVDQU    Y1, 32(DI)
	VMOVDQU    Y2, 64(DI)
	VMOVDQU    Y3, 96(DI)
	VMOVMSKPD  Y12, AX
	VMOVMSKPD  Y13, BX
	SHLL       $4, BX
	ORL        BX, AX
	VZEROUPPER
	MOVL       AX, ret+16(FP)
	RET
