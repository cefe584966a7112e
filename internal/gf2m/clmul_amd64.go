package gf2m

// hasCLMUL reports whether CPUID leaf 1 advertises PCLMULQDQ (ECX
// bit 1). Where it does, Mul, Sqr, MulAcc, Reduce and Precomp use the
// carry-less multiply instruction; elsewhere they take the comb, the
// squaring table and reduce().
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
// bytes at a time, so Reduce's copy of acc loads what it stored.
// MulNoReduce passes a zero acc.
//
//go:noescape
func mulAccCLMUL(acc *[6]uint64, a, b *Element)

// The rejected pairings of product and reduction, kept so that
// BenchmarkMulSweep measures them (numbers in mulsweep_test.go): the
// schoolbook reduced in general-purpose registers, and the 6-product
// Karatsuba reduced either way.
//
//go:noescape
func mulCLMUL9GPR(r, a, b *Element)

//go:noescape
func mulCLMUL6GPR(r, a, b *Element)

//go:noescape
func mulCLMUL6Fold(r, a, b *Element)
