package gf2m

// hasCLMUL reports whether CPUID leaf 1 advertises PCLMULQDQ (ECX
// bit 1). Where it does, MulTo, SqrTo, MulAcc, Reduce and Precomp's
// products use the carry-less multiply instruction; elsewhere they take
// the comb, the squaring table and reduce().
var hasCLMUL = cpuid1ECX()&(1<<1) != 0

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// mulCLMUL sets *r = a·b: the 3×3-word schoolbook in nine PCLMULQDQ,
// then words 3-5 fold down with three more.
//
//go:noescape
func mulCLMUL(r, a, b *Element)

// sqrCLMUL sets *r = a²: three word squares and mulCLMUL's fold.
//
//go:noescape
func sqrCLMUL(r, a *Element)

// reduceCLMUL sets *r = c mod f by mulCLMUL's fold.
//
//go:noescape
func reduceCLMUL(r *Element, c *[6]uint64)

// mulAccCLMUL XORs the unreduced 6-word product a·b into *acc, 16
// bytes at a time, so reduceCLMUL, reading acc, loads what it stored.
// MulNoReduce passes a zero acc.
//
//go:noescape
func mulAccCLMUL(acc *[6]uint64, a, b *Element)
