// Package wire is the compact binary codec the real-network transport
// backend speaks. Every ioa.Message crosses a socket as one frame of the
// same layout:
//
//	[kind][rid][tag][body]
//
// the kind byte, the request id as a zigzag varint, the version tag as two
// more (sequence, writer), then the body. The header is written and read
// here once, for every message; a body is written by its type's codec. The
// codecs sit in a table indexed by kind, filled by each algorithm package's
// init: a kind registered with no codec is header-only, its frame ending
// after the tag, and a codec serves every kind that carries its body type.
// The shared bodies of package register have their codecs here; a package
// with a body of its own registers that codec beside the type. This package
// also owns the primitive encoders and the decode hardening (bounds-checked
// lengths, no panics on malformed input).
//
// Kind ranges (a Register collision panics at init):
//
//	0x10–0x1f  internal/abd    (query/put and their acks)
//	0x20–0x2f  internal/cas    (query-fin, pre-write, finalize, read-fin)
//	0x30–0x3f  internal/coded  (W1/W2, read, gossip finalization notes)
//
// Every body codec also carries a Sample generator, which is how the fuzz
// tests round-trip every registered kind without this package knowing the
// algorithms: Sample(kind, seed) -> Append -> Decode -> re-Append must be the
// identity on bytes and reflect.DeepEqual on values (a decoded shard's pool
// handle set aside).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/register"
)

// Body is the codec of one body type. Encode appends the body, reporting
// false when it is not of the codec's type: a message whose body disagrees
// with its kind. Decode reads one back, relying on the Reader's sticky
// error: it reads every field, and DecodeBody checks Err once at the end. Sample
// returns a deterministic body derived from seed, for the round-trip tests.
type Body struct {
	Encode func(b *Buffer, body any) bool
	Decode func(r *Reader) any
	Sample func(seed uint64) any
}

// kind is one entry of the table: the kind's name in errors and test output
// (e.g. "abd.putMsg"; empty while unregistered) and its body codec, nil for
// a header-only kind.
type kind struct {
	name string
	body *Body
}

// kinds is the table, indexed by kind. It is filled at init time only (the
// algorithm packages' init functions), read-only afterwards — no locking.
var kinds [256]kind

// Register names a kind and binds its body codec, nil for a header-only
// kind. Register panics on a duplicate kind — a wire-format bug that must
// fail at init, not at send time.
func Register(k ioa.Kind, name string, body *Body) {
	if prev := kinds[k].name; prev != "" {
		panic(fmt.Sprintf("wire: kind 0x%02x registered twice (%s and %s)", byte(k), prev, name))
	}
	kinds[k] = kind{name: name, body: body}
}

// Kinds returns the registered kinds, ascending — the fuzz tests sweep the
// table through this.
func Kinds() []ioa.Kind {
	var out []ioa.Kind
	for k := range kinds {
		if kinds[k].name != "" {
			out = append(out, ioa.Kind(k))
		}
	}
	return out
}

// Name returns the name a kind was registered under, "" if none.
func Name(k ioa.Kind) string { return kinds[k].name }

// Sample returns a deterministic message of kind k derived from seed: a
// header from the seed and, if the kind has a body, its codec's sample.
func Sample(k ioa.Kind, seed uint64) ioa.Message {
	m := &ioa.Msg{Kind: k, RID: int64(seed), Tag: ioa.Tag{Seq: int64(seed % 1024), Writer: ioa.NodeID(seed % 7)}}
	if c := kinds[k].body; c != nil {
		m.Body = c.Sample(seed)
	}
	return m
}

// Append encodes the message onto dst ([kind][rid][tag][body]) and returns
// the extended slice. An unregistered kind, or a body that disagrees with
// the kind, is an error: the transport backend can only carry what the
// codec knows.
func Append(dst []byte, msg ioa.Message) ([]byte, error) {
	var b Buffer
	return b.Append(dst, msg)
}

// Append is the package's Append through b: it encodes the message onto dst
// and returns the extended slice, leaving b empty. A body codec is handed
// the Buffer it writes through, so a fresh one escapes to the heap; a
// caller that keeps b and the slice it appends to encodes allocating
// nothing.
func (b *Buffer) Append(dst []byte, msg ioa.Message) ([]byte, error) {
	if msg == nil {
		return dst, fmt.Errorf("wire: nil message")
	}
	k := kinds[msg.Kind]
	if k.name == "" {
		return dst, fmt.Errorf("wire: kind 0x%02x is not registered", byte(msg.Kind))
	}
	b.buf = append(dst, byte(msg.Kind))
	b.Varint(msg.RID)
	b.Tag(msg.Tag)
	ok := msg.Body == nil
	if k.body != nil {
		ok = k.body.Encode(b, msg.Body)
	}
	out := b.buf
	b.buf = nil
	if !ok {
		return dst, fmt.Errorf("wire: %s: body %T does not fit the kind", k.name, msg.Body)
	}
	return out, nil
}

// readers recycles the Readers frames are decoded through: a body codec is
// handed the Reader it reads through, so a fresh one would escape to the
// heap on every call, and each Reader carves the messages it decodes from a
// slab of its own.
var readers = sync.Pool{New: func() any { return new(Reader) }}

// Decode parses one frame produced by Append: Header, then DecodeBody.
// Malformed input — unknown kind, truncated header or body, trailing bytes,
// oversized lengths — returns an error; it never panics and never allocates
// beyond the input's own length. The message keeps nothing of data: byte
// strings and shards are copied out.
func Decode(data []byte) (ioa.Message, error) {
	hdr, body, err := Header(data)
	if err != nil {
		return nil, err
	}
	return DecodeBody(hdr, body)
}

// Header reads a frame's header, allocating nothing: the message it returns
// has its kind, RID and tag and no body yet, and body is the rest of the
// frame. A caller can judge the message by its header before it pays for
// the body. The kind must be registered.
func Header(data []byte) (hdr ioa.Msg, body []byte, err error) {
	if len(data) == 0 {
		return hdr, nil, fmt.Errorf("wire: empty frame")
	}
	k := ioa.Kind(data[0])
	if kinds[k].name == "" {
		return hdr, nil, fmt.Errorf("wire: unknown kind 0x%02x", data[0])
	}
	r := Reader{buf: data[1:]}
	hdr = ioa.Msg{Kind: k, RID: r.Varint(), Tag: r.Tag()}
	if r.err != nil {
		return ioa.Msg{}, nil, fmt.Errorf("wire: %s header: %w", kinds[k].name, r.err)
	}
	return hdr, r.buf, nil
}

// DecodeBody decodes the body of the message whose header Header read, from
// the rest of the frame, and returns the whole message. A header-only kind
// must have nothing left.
func DecodeBody(hdr ioa.Msg, data []byte) (ioa.Message, error) {
	k := kinds[hdr.Kind]
	r := readers.Get().(*Reader)
	r.buf = data
	if k.body != nil {
		hdr.Body = k.body.Decode(r)
	}
	err, trailing := r.err, len(r.buf)
	var m ioa.Message
	if err == nil && trailing == 0 {
		m = r.slab.Carve(hdr)
	}
	r.buf, r.err = nil, nil // a pooled Reader must not pin data
	readers.Put(r)
	switch {
	case err != nil:
		return nil, fmt.Errorf("wire: %s: %w", k.name, err)
	case trailing != 0:
		return nil, fmt.Errorf("wire: %s: %d trailing bytes", k.name, trailing)
	}
	return m, nil
}

// --- the shared bodies' codecs ---

// Value and WriteValue carry a register.Value and a register.WriteValue: a
// length-prefixed byte string.
var (
	Value      = bytesBody[register.Value]()
	WriteValue = bytesBody[register.WriteValue]()
)

func bytesBody[T ~[]byte]() Body {
	return Body{
		Encode: func(b *Buffer, body any) bool {
			v, ok := body.(T)
			b.Bytes8(v)
			return ok
		},
		Decode: func(r *Reader) any { return T(r.Bytes8()) },
		Sample: func(seed uint64) any { return T(register.MakeValue(8+int(seed%24), seed)) },
	}
}

// Element carries a register.Element or none: a presence byte, then the
// coded element. A nil body is a server that holds no element to hand over.
var Element = Body{
	Encode: func(b *Buffer, body any) bool {
		e, ok := body.(register.Element)
		b.Bool(ok)
		if ok {
			b.Shard(e.Shard)
		}
		return ok || body == nil
	},
	Decode: func(r *Reader) any {
		if !r.Bool() {
			return nil
		}
		return register.Element{Shard: r.Shard()}
	},
	Sample: func(seed uint64) any {
		if seed%2 == 1 {
			return nil
		}
		return register.Element{Shard: SampleShard(seed)}
	},
}

// WriteElement carries a register.WriteElement: the coded element.
var WriteElement = Body{
	Encode: func(b *Buffer, body any) bool {
		e, ok := body.(register.WriteElement)
		b.Shard(e.Shard)
		return ok
	},
	Decode: func(r *Reader) any { return register.WriteElement{Shard: r.Shard()} },
	Sample: func(seed uint64) any { return register.WriteElement{Shard: SampleShard(seed)} },
}

// SampleShard derives a deterministic coded element for a body's Sample.
func SampleShard(seed uint64) erasure.Shard {
	return erasure.Shard{Index: int(seed % 9), Data: register.MakeValue(8+int(seed%16), seed)}
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

// Tag appends a version tag (sequence + writer id).
func (b *Buffer) Tag(t ioa.Tag) {
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
	buf  []byte
	err  error
	slab ioa.Slab // what Decode carves the messages it reads through this Reader from
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

// Tag reads a version tag.
func (r *Reader) Tag() ioa.Tag {
	seq := r.Varint()
	w := r.Varint()
	if w < math.MinInt32 || w > math.MaxInt32 {
		r.fail("tag writer id %d outside int32 range", w)
	}
	return ioa.Tag{Seq: seq, Writer: ioa.NodeID(w)}
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
