package erasure

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

// A coded element has one owner at a time. The shards EncodeOne and NewShard
// return are drawn from a pool and count their holders, starting at one:
// whoever keeps a copy of the Shard value beside the one it was handed calls
// Retain, each holder that lets go calls Release once, and the last Release
// puts the buffer back in the pool for the next shard of its size class. A
// holder that never releases just leaves the buffer to the garbage
// collector, so a dropped message, a snapshot or an automaton that ignores
// the rule is always safe; only a copy kept without Retain is wrong, since
// the buffer may be refilled under it. Shards built by hand (no pool) ignore
// Retain and Release.

// buffer is a pooled shard's storage and its holder count. gen counts the
// buffer's trips back to the pool: a Shard records the generation it was
// drawn at, so a holder of a recycled buffer is caught at its next Retain or
// Release instead of reading another value's bytes.
type buffer struct {
	data []byte // full class capacity; a shard uses data[:its length]
	pool *sync.Pool
	refs atomic.Int32
	gen  atomic.Uint32
}

// pools holds one pool per size class: lengths round up to a quarter step of
// their power of two (see sizeClass), so past four bytes a buffer is at most
// a fifth slack, and lengths that differ by a few bytes share buffers.
var pools [256]sync.Pool

// poison makes the last Release in a test binary overwrite the buffer, so a
// holder that read on without retaining sees garbage a checker catches.
var poison = testing.Testing()

const poisonByte = 0xa5

// sizeClass returns the pool index and buffer capacity for a shard of n > 0
// bytes: n in (2^(e-1), 2^e] rounds up to a multiple of 2^(e-3).
func sizeClass(n int) (int, int) {
	e := bits.Len(uint(n - 1))
	if e < 3 {
		return e, 1 << e
	}
	step := 1 << (e - 3)
	c := (n + step - 1) / step // in [5, 8]
	return 4*e + c - 5, c * step
}

// NewShard returns a shard of size bytes drawn from the pool, held once by
// the caller. Its contents are unspecified: the caller fills Data before
// anyone else sees it. A size of zero or less returns a shard with no data.
func NewShard(index, size int) Shard {
	if size <= 0 {
		return Shard{Index: index}
	}
	class, capacity := sizeClass(size)
	pool := &pools[class]
	b, _ := pool.Get().(*buffer)
	if b == nil {
		b = &buffer{data: make([]byte, capacity), pool: pool}
	}
	b.refs.Store(1)
	return Shard{Index: index, Data: b.data[:size:size], buf: b, gen: b.gen.Load()}
}

// holder returns the shard's pooled buffer, or nil for a shard built by
// hand. It panics when the buffer went back to the pool after this Shard
// value was handed out: its holder let go and read on.
func (s Shard) holder(op string) *buffer {
	if s.buf == nil {
		return nil
	}
	if g := s.buf.gen.Load(); g != s.gen {
		panic(fmt.Sprintf("erasure: %s of shard %d after its buffer was recycled (generation %d, buffer at %d)", op, s.Index, s.gen, g))
	}
	return s.buf
}

// Retain counts one more holder of the shard's buffer: call it for every
// copy of the Shard that is kept beside the one already held.
func (s Shard) Retain() {
	if b := s.holder("Retain"); b != nil && b.refs.Add(1) <= 1 {
		panic(fmt.Sprintf("erasure: Retain of shard %d that no holder holds", s.Index))
	}
}

// Release lets go of one holder's claim on the shard's buffer; the last
// Release puts it back in the pool. The Shard must not be read afterwards.
func (s Shard) Release() {
	b := s.holder("Release")
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic(fmt.Sprintf("erasure: Release of shard %d that no holder holds", s.Index))
	}
	b.gen.Add(1)
	if poison {
		b.data[0] = poisonByte
		for w := 1; w < len(b.data); w *= 2 {
			copy(b.data[w:], b.data[:w])
		}
	}
	b.pool.Put(b)
}
