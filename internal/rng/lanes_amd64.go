package rng

// hasAVX2 reports whether the CPU and the OS support AVX2: CPUID leaf
// 1 reports OSXSAVE (ECX bit 27) and AVX (bit 28), leaf 7 reports AVX2
// (EBX bit 5), and XGETBV shows the OS saving the XMM and YMM state
// (XCR0 bits 1 and 2). Where it does, SkipLanes steps 8 generators at
// a time through skipPairsAVX2.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid returns the registers CPUID reports for a leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0; call it only where CPUID
// reports OSXSAVE.
func xgetbv0() uint32

// skipPairsAVX2 steps the 8 xorshift128+ states of st past pairs
// Box–Muller pairs, two draws per pair, and returns a bit mask of the
// lanes that drew a u whose top 53 bits were zero.
//
//go:noescape
func skipPairsAVX2(st *laneStates, pairs int) uint32
