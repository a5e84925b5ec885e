// Package wire is the compact binary codec the real-network transport
// backend speaks: every ioa.Message an algorithm sends over a socket is
// framed as a one-byte type identifier followed by a hand-written varint
// body. The codec is a registry — each algorithm package (abd, cas, coded)
// registers a Codec per message type from an assigned identifier range in
// its init, keeping the field layout next to the type it serializes while
// this package owns the envelope, the primitive encoders and the decode
// hardening (bounds-checked lengths, no panics on malformed input).
//
// Identifier ranges (a Register collision panics at init):
//
//	0x10–0x1f  internal/abd    (query/put and their acks)
//	0x20–0x2f  internal/cas    (query-fin, pre-write, finalize, read-fin)
//	0x30–0x3f  internal/coded  (W1/W2, read, gossip finalization notes)
//
// Every Codec also carries a Sample generator, which is how the fuzz tests
// round-trip *every* registered message type without this package knowing
// any concrete type: Sample(seed) -> Append -> Decode -> re-Append must be
// the identity on bytes and reflect.DeepEqual on values (a decoded shard's
// pool handle set aside).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/register"
)

// TypeID identifies a registered message type on the wire.
type TypeID byte

// Codec serializes one concrete message type. Encode appends the body to
// the buffer; Decode consumes it from the reader and returns the message as
// the same concrete value type the automata type-switch on. Sample produces
// a deterministic pseudo-random instance for the round-trip fuzz tests.
type Codec struct {
	// Name labels the type in errors and test output (e.g. "abd.putMsg").
	Name string
	// Encode appends the message body (everything after the TypeID byte).
	Encode func(b *Buffer, msg ioa.Message)
	// Decode reads the body back. Implementations use the Reader's sticky
	// error: read every field, then rely on Decode's final Err check.
	Decode func(r *Reader) ioa.Message
	// Sample returns a deterministic instance derived from seed.
	Sample func(seed uint64) ioa.Message
}

// registry maps both directions: TypeID -> Codec for decoding and concrete
// reflect.Type -> TypeID for encoding. Populated at init time only (the
// algorithm packages' init functions), read-only afterwards — no locking.
var (
	codecs  = map[TypeID]Codec{}
	typeIDs = map[reflect.Type]TypeID{}
)

// Register binds a TypeID to a codec. The sample message fixes the concrete
// Go type the codec encodes. Register panics on a duplicate id or type —
// a wire-format bug that must fail at init, not at send time.
func Register(id TypeID, c Codec) {
	if _, dup := codecs[id]; dup {
		panic(fmt.Sprintf("wire: duplicate type id 0x%02x (%s)", byte(id), c.Name))
	}
	rt := reflect.TypeOf(c.Sample(0))
	if prev, dup := typeIDs[rt]; dup {
		panic(fmt.Sprintf("wire: type %v registered twice (ids 0x%02x and 0x%02x)", rt, byte(prev), byte(id)))
	}
	codecs[id] = c
	typeIDs[rt] = id
}

// Types returns the registered type ids, ascending — the fuzz tests sweep
// the registry through this.
func Types() []TypeID {
	out := make([]TypeID, 0, len(codecs))
	for id := range codecs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CodecFor returns the codec registered under id.
func CodecFor(id TypeID) (Codec, bool) {
	c, ok := codecs[id]
	return c, ok
}

// Append encodes the message onto dst ([TypeID][body]) and returns the
// extended slice. Unregistered message types are an error: the transport
// backend can only carry what the codec knows.
func Append(dst []byte, msg ioa.Message) ([]byte, error) {
	var b Buffer
	return b.Append(dst, msg)
}

// Append is the package's Append through b: it encodes the message onto dst
// and returns the extended slice, leaving b empty. A codec's encoder is
// handed the Buffer it writes through, so a fresh one escapes to the heap;
// a caller that keeps b and the slice it appends to encodes allocating
// nothing.
func (b *Buffer) Append(dst []byte, msg ioa.Message) ([]byte, error) {
	id, ok := typeIDs[reflect.TypeOf(msg)]
	if !ok {
		return dst, fmt.Errorf("wire: message type %T is not registered", msg)
	}
	b.buf = append(dst, byte(id))
	codecs[id].Encode(b, msg)
	out := b.buf
	b.buf = nil
	return out, nil
}

// readers recycles Decode's Readers: a codec's decoder is handed the Reader
// it reads through, so a fresh one would escape to the heap on every call.
var readers = sync.Pool{New: func() any { return new(Reader) }}

// Decode parses one envelope produced by Append. Malformed input — unknown
// type id, truncated body, trailing bytes, oversized lengths — returns an
// error; it never panics and never allocates beyond the input's own length.
// The message keeps nothing of data: byte strings and shards are copied out.
func Decode(data []byte) (ioa.Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty envelope")
	}
	c, ok := codecs[TypeID(data[0])]
	if !ok {
		return nil, fmt.Errorf("wire: unknown type id 0x%02x", data[0])
	}
	r := readers.Get().(*Reader)
	r.buf = data[1:]
	msg := c.Decode(r)
	err, trailing := r.err, len(r.buf)
	*r = Reader{} // a pooled Reader must not pin data
	readers.Put(r)
	if err != nil {
		return nil, fmt.Errorf("wire: %s: %w", c.Name, err)
	}
	if trailing != 0 {
		return nil, fmt.Errorf("wire: %s: %d trailing bytes", c.Name, trailing)
	}
	return msg, nil
}

// --- primitive encoding ---

// Buffer accumulates an encoded body. The primitives mirror Reader's.
type Buffer struct{ buf []byte }

// Uvarint appends an unsigned varint.
func (b *Buffer) Uvarint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }

// Varint appends a signed (zigzag) varint.
func (b *Buffer) Varint(v int64) { b.buf = binary.AppendVarint(b.buf, v) }

// Bool appends a single 0/1 byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.buf = append(b.buf, 1)
	} else {
		b.buf = append(b.buf, 0)
	}
}

// Bytes8 appends a length-prefixed byte string.
func (b *Buffer) Bytes8(v []byte) {
	b.Uvarint(uint64(len(v)))
	b.buf = append(b.buf, v...)
}

// Tag appends a register version tag (sequence + writer id).
func (b *Buffer) Tag(t register.Tag) {
	b.Varint(t.Seq)
	b.Varint(int64(t.Writer))
}

// Shard appends an erasure-coded element (index + data).
func (b *Buffer) Shard(s erasure.Shard) {
	b.Varint(int64(s.Index))
	b.Bytes8(s.Data)
}

// Reader consumes an encoded body with a sticky error: after the first
// malformed field every subsequent read returns the zero value, and Decode
// surfaces Err once at the end — codecs read fields unconditionally.
type Reader struct {
	buf []byte
	err error
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
		r.buf = nil
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) == 0 {
		r.fail("truncated bool")
		return false
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	if v > 1 {
		r.fail("bool byte 0x%02x", v)
		return false
	}
	return v == 1
}

// span reads a length-prefixed byte string and returns it in place,
// aliasing the input. The length is validated against the remaining input,
// so a malicious prefix cannot force a huge allocation on the caller.
func (r *Reader) span() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.fail("byte string length %d exceeds %d remaining bytes", n, len(r.buf))
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// Bytes8 reads a length-prefixed byte string into a slice of its own. Zero
// length decodes to nil, preserving Append(Decode(x)) == x for messages built
// with nil slices.
func (r *Reader) Bytes8() []byte {
	b := r.span()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Tag reads a register version tag.
func (r *Reader) Tag() register.Tag {
	seq := r.Varint()
	w := r.Varint()
	if w < math.MinInt32 || w > math.MaxInt32 {
		r.fail("tag writer id %d outside int32 range", w)
	}
	return register.Tag{Seq: seq, Writer: ioa.NodeID(w)}
}

// Shard reads an erasure-coded element into a buffer drawn from the shard
// pool, held once by the decoded message. Zero length decodes to no data.
func (r *Reader) Shard() erasure.Shard {
	idx := r.Varint()
	data := r.span()
	if idx < 0 || idx > math.MaxInt32 {
		r.fail("shard index %d outside [0, MaxInt32]", idx)
	}
	if r.err != nil || len(data) == 0 {
		return erasure.Shard{Index: int(idx)}
	}
	s := erasure.NewShard(int(idx), len(data))
	copy(s.Data, data)
	return s
}
