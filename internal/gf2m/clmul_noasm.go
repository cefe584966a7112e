//go:build !amd64

package gf2m

// hasCLMUL is false off amd64: MulTo, SqrTo, MulAcc, Reduce and
// Precomp's products take the comb, the squaring table and reduce(),
// and the PCLMULQDQ kernels below are never called.
const hasCLMUL = false

func mulCLMUL(r, a, b *Element)                 { panic("gf2m: no PCLMULQDQ kernel on this GOARCH") }
func sqrCLMUL(r, a *Element)                    { panic("gf2m: no PCLMULQDQ kernel on this GOARCH") }
func mulAccCLMUL(acc *[6]uint64, a, b *Element) { panic("gf2m: no PCLMULQDQ kernel on this GOARCH") }
func reduceCLMUL(r *Element, c *[6]uint64)      { panic("gf2m: no PCLMULQDQ kernel on this GOARCH") }
