// Package gf implements arithmetic over the finite field GF(2^8).
//
// The field is realized as polynomials over GF(2) modulo the primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by
// most Reed-Solomon deployments. Single-element products come from a full
// 256x256 product table; division uses logarithm/antilogarithm tables. The
// slice kernel behind Reed-Solomon encoding has two implementations: on amd64
// CPUs with AVX2 it multiplies 32 bytes per step by looking up each nibble in
// a 16-entry product table (split-nibble shuffles), and everywhere else, and
// for the last bytes of a slice, it walks a coefficient's product row eight
// bytes per uint64 step. The word kernel is the reference the vector kernel
// is tested against.
//
// GF(2^8) is the substrate for the erasure codes in package erasure, which in
// turn back the coded shared-memory registers that the storage-cost
// experiments measure.
package gf

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
)

// Poly is the primitive polynomial used to construct the field
// (x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11d

// Order is the number of elements in the field.
const Order = 256

// Elem is an element of GF(2^8).
type Elem uint8

// Field holds the precomputed multiplication tables for GF(2^8).
//
// A Field is immutable after construction and safe for concurrent use.
type Field struct {
	exp [2 * (Order - 1)]Elem // exp[i] = g^i, doubled to avoid mod in Div
	log [Order]int            // log[exp[i]] = i; log[0] unused

	// mul is the full product table: mul[a][b] = a*b. It removes the
	// zero-branches and log/exp indirection from the matrix kernels.
	mul [Order][Order]byte

	// nib holds, per coefficient c, c times each low nibble x (nib[c][x])
	// and c times each high nibble (nib[c][16+x] = c*(x<<4)): a product is
	// the XOR of its two nibbles' entries, the lookup the vector kernel
	// does 32 bytes at a time.
	nib [Order][32]byte
}

// NewField builds the GF(2^8) tables. The generator is g = 2, which is
// primitive for Poly.
func NewField() *Field {
	var f Field
	x := 1
	for i := 0; i < Order-1; i++ {
		f.exp[i] = Elem(x)
		f.log[x] = i
		x <<= 1
		if x >= Order {
			x ^= Poly
		}
	}
	// Duplicate the exp table so products of logs can index it directly.
	for i := Order - 1; i < 2*(Order-1); i++ {
		f.exp[i] = f.exp[i-(Order-1)]
	}
	for a := 1; a < Order; a++ {
		la := f.log[a]
		for b := 1; b < Order; b++ {
			f.mul[a][b] = byte(f.exp[la+f.log[b]])
		}
		for x := 0; x < 16; x++ {
			f.nib[a][x], f.nib[a][16+x] = f.mul[a][x], f.mul[a][x<<4]
		}
	}
	return &f
}

// defaultField builds the shared field tables once; every (n, k) code uses
// the same field, so there is no reason to rebuild 64 KiB of tables per
// deployment.
var defaultField = sync.OnceValue(NewField)

// Default returns the shared GF(2^8) field. It is immutable and safe for
// concurrent use.
func Default() *Field { return defaultField() }

// Add returns a + b. In characteristic 2, addition is XOR and is identical to
// subtraction.
func (f *Field) Add(a, b Elem) Elem { return a ^ b }

// Mul returns a * b.
func (f *Field) Mul(a, b Elem) Elem { return Elem(f.mul[a][b]) }

// Div returns a / b. Division by zero is reported as an error.
func (f *Field) Div(a, b Elem) (Elem, error) {
	if b == 0 {
		return 0, fmt.Errorf("gf: division by zero (a=%d)", a)
	}
	if a == 0 {
		return 0, nil
	}
	d := f.log[a] - f.log[b]
	if d < 0 {
		d += Order - 1
	}
	return f.exp[d], nil
}

// Inv returns the multiplicative inverse of a. Zero has no inverse.
func (f *Field) Inv(a Elem) (Elem, error) {
	if a == 0 {
		return 0, fmt.Errorf("gf: zero has no multiplicative inverse")
	}
	return f.exp[(Order-1)-f.log[a]], nil
}

// Pow returns a raised to the power n (n >= 0).
func (f *Field) Pow(a Elem, n int) Elem {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (f.log[a] * n) % (Order - 1)
	return f.exp[l]
}

// Exp returns g^i where g = 2 is the field generator.
func (f *Field) Exp(i int) Elem {
	i %= Order - 1
	if i < 0 {
		i += Order - 1
	}
	return f.exp[i]
}

// MulSlice computes dst[i] ^= c * src[i] for all i. It is the inner loop of
// Reed-Solomon encoding. dst and src must have equal length.
//
// c = 1, the commonest coefficient of a normalised generator, is a plain
// vector XOR. Any other coefficient goes to the vector kernel for the
// 32-byte multiples of src where the CPU has one (see mulVector), and to the
// word kernel for the rest.
func (f *Field) MulSlice(c Elem, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		subtle.XORBytes(dst, dst, src)
		return
	}
	dst = dst[:len(src)] // a short dst panics here, before any kernel writes
	n := mulVector(&f.nib[c], src, dst)
	mulWord(&f.mul[c], src[n:], dst[n:])
}

// mulWord is the portable kernel: dst[i] ^= mt[src[i]] for all i, with mt a
// coefficient's product row and len(dst) >= len(src). It walks both slices in
// uint64 words: eight source bytes are loaded at once, multiplied through
// the row, repacked, and folded into dst with a single 8-byte XOR store.
func mulWord(mt *[Order]byte, src, dst []byte) {
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		p := uint64(mt[s&255]) |
			uint64(mt[s>>8&255])<<8 |
			uint64(mt[s>>16&255])<<16 |
			uint64(mt[s>>24&255])<<24 |
			uint64(mt[s>>32&255])<<32 |
			uint64(mt[s>>40&255])<<40 |
			uint64(mt[s>>48&255])<<48 |
			uint64(mt[s>>56])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^p)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}
