// Package lightcrypto provides from-scratch implementations of the
// symmetric primitives the paper's protocol-level discussion compares
// against public-key cryptography: AES-128 (the secret-key cipher of
// the "protocols based on secret key algorithms, like AES" paragraph)
// and SHA-1 (the hash whose 5 527-gate implementation [12] anchors the
// implementation-size argument of Section 4).
//
// Every internal/rng DRBG draw runs AES-128 in counter mode through
// KeyStream: mask refresh, RPC masks, nonces and link faults all sit on
// that stream. On amd64 CPUs with the AES instructions KeyStream
// encrypts four counter blocks at once with AESENC (ctr_amd64.s);
// elsewhere it loops Encrypt, the standard 32-bit table-driven cipher
// with one 256-entry round table built at init from the S-box. Encrypt
// also serves CTR, CBC-MAC and Seal/Open. SHA-1 favours clarity over
// speed. Both primitives are cross-checked against crypto/aes and
// crypto/sha1 in the tests.
//
// The AES-NI keystream makes no key-dependent table lookups. Encrypt,
// like the byte-at-a-time rounds it replaced, is not constant-time
// against cache-timing attacks: its table indices depend on key bytes.
// This is simulator software that draws simulation randomness, not a
// model of the device's cipher. Gate-count and energy figures for the
// device's primitives live in internal/area and internal/radio, where
// the protocol-level energy trade-off experiments (E6, E7) consume
// them.
package lightcrypto

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// AESBlockSize is the AES block size in bytes.
const AESBlockSize = 16

// AESKeySize is the AES-128 key size in bytes.
const AESKeySize = 16

// sbox is generated at init from the algebraic definition (inversion
// in GF(2^8) followed by the affine map) rather than pasted as
// literals, so a table typo is structurally impossible.
var sbox [256]byte

func init() {
	// Multiplicative inverse table in GF(2^8) with the AES polynomial
	// x^8+x^4+x^3+x+1 (0x11b), built from a generator-based log table.
	var log, alog [256]byte
	p := byte(1)
	for i := 0; i < 255; i++ {
		alog[i] = p
		log[p] = byte(i)
		// Multiply p by the generator 0x03 = x+1.
		p ^= gmulX(p)
	}
	inv := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return alog[(255-int(log[b]))%255]
	}
	for i := 0; i < 256; i++ {
		x := inv(byte(i))
		// Affine transformation: s = x ^ rotl(x,1..4) ^ 0x63.
		s := x ^ rotlByte(x, 1) ^ rotlByte(x, 2) ^ rotlByte(x, 3) ^ rotlByte(x, 4) ^ 0x63
		sbox[i] = s
	}
}

func rotlByte(b byte, n uint) byte { return b<<n | b>>(8-n) }

// gmulX multiplies by x in GF(2^8) mod x^8+x^4+x^3+x+1.
func gmulX(b byte) byte {
	hi := b >> 7
	return b<<1 ^ hi*0x1b
}

// gmul multiplies two GF(2^8) elements (shift-and-add).
func gmul(a, b byte) byte {
	var r byte
	for i := 0; i < 8; i++ {
		if b&1 == 1 {
			r ^= a
		}
		a = gmulX(a)
		b >>= 1
	}
	return r
}

// mul2 and mul3 tabulate gmul(·, 2) and gmul(·, 3), the two
// non-trivial MixColumns coefficients, for building te0. Filled at
// init from gmul itself, so the values cannot drift from the
// definitional multiply.
var mul2, mul3 [256]byte

// te0 is the encryption round table: te0[x] is the MixColumns column
// (2·S(x), S(x), S(x), 3·S(x)) of an S-boxed byte in row 0, packed
// big-endian. A byte in row r contributes the same column rotated
// right by 8r bits, so one table serves all four rows.
var te0 [256]uint32

func init() {
	for i := 0; i < 256; i++ {
		mul2[i] = gmul(byte(i), 2)
		mul3[i] = gmul(byte(i), 3)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		te0[i] = uint32(mul2[s])<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(mul3[s])
	}
}

// AES is an AES-128 block cipher instance with an expanded key
// schedule.
type AES struct {
	rk  [44]uint32 // 11 round keys of 4 words
	enc [176]byte  // rk in byte order, as the AES-NI keystream loads it
}

// NewAES expands a 16-byte key into an AES-128 instance.
func NewAES(key []byte) (*AES, error) {
	a := new(AES)
	if err := a.Rekey(key); err != nil {
		return nil, err
	}
	return a, nil
}

// Rekey re-expands the instance in place for a new 16-byte key. It
// lets long-lived consumers (the campaign engine's per-worker DRBGs)
// re-seed per sample without allocating a fresh cipher.
func (a *AES) Rekey(key []byte) error {
	if len(key) != AESKeySize {
		return errors.New("lightcrypto: AES-128 requires a 16-byte key")
	}
	for i := 0; i < 4; i++ {
		a.rk[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := 4; i < 44; i++ {
		t := a.rk[i-1]
		if i%4 == 0 {
			t = subWord(t<<8|t>>24) ^ rcon<<24
			rcon = uint32(gmulX(byte(rcon)))
		}
		a.rk[i] = a.rk[i-4] ^ t
	}
	for i, w := range a.rk {
		binary.BigEndian.PutUint32(a.enc[4*i:], w)
	}
	return nil
}

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// Encrypt encrypts one 16-byte block: dst = AES-128(src). dst and src
// may overlap.
//
// The state is four big-endian column words. A full round is
// SubBytes, ShiftRows and MixColumns folded into te0 lookups: output
// column c takes row r from input column c+r (ShiftRows), and that
// byte's column contribution is te0 rotated into row r. The final
// round has no MixColumns and uses the S-box alone.
func (a *AES) Encrypt(dst, src []byte) {
	if len(src) < AESBlockSize || len(dst) < AESBlockSize {
		panic("lightcrypto: short AES block")
	}
	rk := &a.rk
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ rk[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ rk[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ rk[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ rk[3]
	for k := 4; k < 40; k += 4 {
		t0 := te0[s0>>24] ^ bits.RotateLeft32(te0[byte(s1>>16)], -8) ^
			bits.RotateLeft32(te0[byte(s2>>8)], -16) ^ bits.RotateLeft32(te0[byte(s3)], -24)
		t1 := te0[s1>>24] ^ bits.RotateLeft32(te0[byte(s2>>16)], -8) ^
			bits.RotateLeft32(te0[byte(s3>>8)], -16) ^ bits.RotateLeft32(te0[byte(s0)], -24)
		t2 := te0[s2>>24] ^ bits.RotateLeft32(te0[byte(s3>>16)], -8) ^
			bits.RotateLeft32(te0[byte(s0>>8)], -16) ^ bits.RotateLeft32(te0[byte(s1)], -24)
		t3 := te0[s3>>24] ^ bits.RotateLeft32(te0[byte(s0>>16)], -8) ^
			bits.RotateLeft32(te0[byte(s1>>8)], -16) ^ bits.RotateLeft32(te0[byte(s2)], -24)
		r := rk[k : k+4 : k+4]
		s0, s1, s2, s3 = t0^r[0], t1^r[1], t2^r[2], t3^r[3]
	}
	binary.BigEndian.PutUint32(dst[0:4], finalColumn(s0, s1, s2, s3)^rk[40])
	binary.BigEndian.PutUint32(dst[4:8], finalColumn(s1, s2, s3, s0)^rk[41])
	binary.BigEndian.PutUint32(dst[8:12], finalColumn(s2, s3, s0, s1)^rk[42])
	binary.BigEndian.PutUint32(dst[12:16], finalColumn(s3, s0, s1, s2)^rk[43])
}

// finalColumn is one output column of the last round's SubBytes and
// ShiftRows: row r comes from the r-th argument's row-r byte.
func finalColumn(c0, c1, c2, c3 uint32) uint32 {
	return uint32(sbox[c0>>24])<<24 | uint32(sbox[byte(c1>>16)])<<16 |
		uint32(sbox[byte(c2>>8)])<<8 | uint32(sbox[byte(c3)])
}

// CTR encrypts or decrypts msg with AES-128 in counter mode using the
// given 16-byte initial counter block (the operation is an involution).
func (a *AES) CTR(iv, msg []byte) ([]byte, error) {
	if len(iv) != AESBlockSize {
		return nil, errors.New("lightcrypto: CTR needs a 16-byte IV")
	}
	out := make([]byte, len(msg))
	var ctr, ks [16]byte
	copy(ctr[:], iv)
	for off := 0; off < len(msg); off += 16 {
		a.Encrypt(ks[:], ctr[:])
		n := len(msg) - off
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			out[off+i] = msg[off+i] ^ ks[i]
		}
		// Increment the counter big-endian.
		for i := 15; i >= 0; i-- {
			ctr[i]++
			if ctr[i] != 0 {
				break
			}
		}
	}
	return out, nil
}

// keyStreamChunk is KeyStream's length granule: four blocks, the
// width the AES-NI kernel interleaves.
const keyStreamChunk = 4 * AESBlockSize

// KeyStream fills dst with the AES-128 counter-mode keystream from
// counter ctr: block i of dst is the encryption of 0^64 ‖ BE64(ctr+i),
// the counter wrapping mod 2^64. len(dst) must be a multiple of 64
// bytes; any other length panics.
//
// On amd64 CPUs with the AES instructions the blocks run four at a
// time through AESENC; elsewhere they run one at a time through
// Encrypt. Both give the same bytes.
func (a *AES) KeyStream(dst []byte, ctr uint64) {
	if len(dst)%keyStreamChunk != 0 {
		panic("lightcrypto: KeyStream length is not a multiple of 64 bytes")
	}
	a.keyStream(dst, ctr)
}

// keyStreamGeneric is KeyStream over the T-table Encrypt: the path on
// CPUs without AES instructions, and the reference the tests hold the
// AES-NI kernel to.
func (a *AES) keyStreamGeneric(dst []byte, ctr uint64) {
	var blk [AESBlockSize]byte
	for off := 0; off < len(dst); off += AESBlockSize {
		binary.BigEndian.PutUint64(blk[8:], ctr)
		a.Encrypt(dst[off:off+AESBlockSize], blk[:])
		ctr++
	}
}

// CBCMAC computes the AES-CBC-MAC of msg with 10*-style padding.
// Plain CBC-MAC is only secure for fixed-length messages; the protocol
// layer prepends the length, which the helper does here so callers
// cannot get it wrong.
func (a *AES) CBCMAC(msg []byte) [AESBlockSize]byte {
	var mac [16]byte
	// Length block first (prefix-free encoding).
	var lenBlock [16]byte
	binary.BigEndian.PutUint64(lenBlock[8:], uint64(len(msg)))
	a.Encrypt(mac[:], lenBlock[:])
	for off := 0; off < len(msg); off += 16 {
		var blk [16]byte
		n := copy(blk[:], msg[off:])
		if n < 16 {
			blk[n] = 0x80
		}
		for i := range blk {
			blk[i] ^= mac[i]
		}
		a.Encrypt(mac[:], blk[:])
	}
	return mac
}

// Seal encrypts msg under CTR with the given nonce and appends a
// CBC-MAC tag over nonce||ciphertext (encrypt-then-MAC). The nonce
// must be 16 bytes and unique per key.
func (a *AES) Seal(nonce, msg []byte) ([]byte, error) {
	ct, err := a.CTR(nonce, msg)
	if err != nil {
		return nil, err
	}
	macIn := append(append([]byte{}, nonce...), ct...)
	tag := a.CBCMAC(macIn)
	return append(ct, tag[:]...), nil
}

// Open verifies and decrypts a Seal output. It returns an error on
// any tampering — the paper's data-authentication requirement ("a
// modification on the ciphertext may also lead to a corrupted therapy
// that endangers the patient's life").
func (a *AES) Open(nonce, sealed []byte) ([]byte, error) {
	if len(nonce) != AESBlockSize || len(sealed) < AESBlockSize {
		return nil, errors.New("lightcrypto: malformed sealed message")
	}
	ct := sealed[:len(sealed)-AESBlockSize]
	tag := sealed[len(sealed)-AESBlockSize:]
	macIn := append(append([]byte{}, nonce...), ct...)
	want := a.CBCMAC(macIn)
	var diff byte
	for i := range want {
		diff |= want[i] ^ tag[i]
	}
	if diff != 0 {
		return nil, errors.New("lightcrypto: authentication failed")
	}
	return a.CTR(nonce, ct)
}
