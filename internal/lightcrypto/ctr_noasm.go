//go:build !amd64

package lightcrypto

func (a *AES) keyStream(dst []byte, ctr uint64) {
	a.keyStreamGeneric(dst, ctr)
}
