package lightcrypto

// hasAESNI reports whether CPUID leaf 1 advertises the AES
// instructions (ECX bit 25).
var hasAESNI = cpuid1ECX()&(1<<25) != 0

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// keyStreamAESNI is KeyStream in AESENC/AESENCLAST, four blocks per
// loop iteration, with enc as the round keys. len(dst) is a multiple
// of 64.
//
//go:noescape
func keyStreamAESNI(enc *[176]byte, dst []byte, ctr uint64)

func (a *AES) keyStream(dst []byte, ctr uint64) {
	if hasAESNI {
		keyStreamAESNI(&a.enc, dst, ctr)
		return
	}
	a.keyStreamGeneric(dst, ctr)
}
