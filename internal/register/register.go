// Package register defines the shared types of a read/write register
// emulation: version tags, the message bodies the emulations share, value
// helpers and bit-size accounting used by the storage-cost experiments.
package register

import (
	"encoding/binary"

	"repro/internal/erasure"
	"repro/internal/ioa"
)

// Tag is the version identifier of ioa, where a message's header carries
// it: a sequence number and the writer's id, ordered lexicographically.
type Tag = ioa.Tag

// The message bodies below are what the emulations' data-bearing messages
// hold in ioa.Message.Body; every other message is its header alone. The
// Write bodies are a writer's value-dependent messages (Definition 6.4), the
// others a server's replies.

// Value is a stored value a server reports back (an ABD query ack).
type Value []byte

// WriteValue is the value a replicating writer sends every server.
type WriteValue []byte

// BearsValue implements ioa.ValueBearer.
func (WriteValue) BearsValue() bool { return true }

// Element is a coded element a server hands a reader. It holds a count of
// its pooled shard (ioa.Pooled, through the embedded Shard) until the reader
// takes it over.
type Element struct{ erasure.Shard }

// WriteElement is the coded element of the value a writer sends one server,
// pooled like Element.
type WriteElement struct{ erasure.Shard }

// BearsValue implements ioa.ValueBearer.
func (WriteElement) BearsValue() bool { return true }

var (
	_ ioa.ValueBearer = WriteValue(nil)
	_ ioa.ValueBearer = WriteElement{}
	_ ioa.Pooled      = Element{}
	_ ioa.Pooled      = WriteElement{}
)

// MaxTag returns the larger of two tags.
func MaxTag(a, b Tag) Tag {
	if a.Less(b) {
		return b
	}
	return a
}

// ValueBits returns the size of a value in bits; this is the log2|V| of an
// experiment when values are drawn from all byte strings of a fixed length.
func ValueBits(v []byte) int { return 8 * len(v) }

// MakeValue returns a deterministic pseudo-random value of the given byte
// length, distinct for distinct seeds (the first 8 bytes encode the seed).
// Experiments use it to give every write a unique value, which the
// consistency checkers and the injectivity experiments rely on.
func MakeValue(size int, seed uint64) []byte {
	if size < 8 {
		size = 8
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v, seed)
	// Fill the remainder with a cheap xorshift stream so the value is not
	// trivially compressible: byte i is the low byte of the (i+1)-th state.
	// One chain is a serial dependency of six operations per byte, so four
	// chunks of the stream are filled at once, each chain started a chunk
	// further along by the jump table.
	x := seed*2862933555777941757 + 3037000493
	p := v[8:]
	for len(p) >= 4*chunk {
		a, b, c, d := x, leap(x), leap(leap(x)), leap(leap(leap(x)))
		pa, pb := (*[chunk]byte)(p), (*[chunk]byte)(p[chunk:])
		pc, pd := (*[chunk]byte)(p[2*chunk:]), (*[chunk]byte)(p[3*chunk:])
		for i := range pa {
			a, b, c, d = xorshift(a), xorshift(b), xorshift(c), xorshift(d)
			pa[i], pb[i], pc[i], pd[i] = byte(a), byte(b), byte(c), byte(d)
		}
		x, p = d, p[4*chunk:]
	}
	for i := range p {
		x = xorshift(x)
		p[i] = byte(x)
	}
	return v
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// chunk is how far leap advances the xorshift stream.
const chunk = 32

// jump[j][b] is the state chunk xorshift steps after b<<8j. A step is linear
// over GF(2), so leap, the chunk-step advance of any state, is the XOR of the
// advances of its eight bytes.
var jump = func() (t [8][256]uint64) {
	for j := range t {
		for b := range t[j] {
			x := uint64(b) << (8 * j)
			for i := 0; i < chunk; i++ {
				x = xorshift(x)
			}
			t[j][b] = x
		}
	}
	return t
}()

func leap(x uint64) uint64 {
	return jump[0][byte(x)] ^ jump[1][byte(x>>8)] ^ jump[2][byte(x>>16)] ^ jump[3][byte(x>>24)] ^
		jump[4][byte(x>>32)] ^ jump[5][byte(x>>40)] ^ jump[6][byte(x>>48)] ^ jump[7][byte(x>>56)]
}
