package wire_test

import (
	"reflect"
	"testing"

	"repro/internal/erasure"
	"repro/internal/wire"

	// Register every algorithm's message codecs.
	_ "repro/internal/abd"
	_ "repro/internal/cas"
	_ "repro/internal/coded"
)

// TestRegistryCoversAllAlgorithms pins the wire surface: every ABD, CAS and
// coded-register message type must be registered, in its package's assigned
// identifier range. A new message type that forgets its codec breaks the
// net backend at send time — this catches it at test time instead.
func TestRegistryCoversAllAlgorithms(t *testing.T) {
	ids := wire.Types()
	if len(ids) != 19 {
		t.Fatalf("registry holds %d types, want 19 (4 abd + 8 cas + 7 coded)", len(ids))
	}
	ranges := map[string][2]wire.TypeID{
		"abd.":   {0x10, 0x1f},
		"cas.":   {0x20, 0x2f},
		"coded.": {0x30, 0x3f},
	}
	for _, id := range ids {
		c, ok := wire.CodecFor(id)
		if !ok {
			t.Fatalf("Types() returned unregistered id 0x%02x", byte(id))
		}
		matched := false
		for prefix, rng := range ranges {
			if len(c.Name) >= len(prefix) && c.Name[:len(prefix)] == prefix {
				matched = true
				if id < rng[0] || id > rng[1] {
					t.Errorf("%s registered at 0x%02x outside its range [0x%02x, 0x%02x]",
						c.Name, byte(id), byte(rng[0]), byte(rng[1]))
				}
			}
		}
		if !matched {
			t.Errorf("codec %q (0x%02x) has no known package prefix", c.Name, byte(id))
		}
	}
}

// TestRoundTripEveryType round-trips deterministic samples of every
// registered message type: Decode(Append(nil, m)) must equal m structurally
// and re-encode to identical bytes.
func TestRoundTripEveryType(t *testing.T) {
	for _, id := range wire.Types() {
		c, _ := wire.CodecFor(id)
		t.Run(c.Name, func(t *testing.T) {
			for seed := uint64(0); seed < 64; seed++ {
				msg := c.Sample(seed)
				data, err := wire.Append(nil, msg)
				if err != nil {
					t.Fatalf("seed %d: encode: %v", seed, err)
				}
				back, err := wire.Decode(data)
				if err != nil {
					t.Fatalf("seed %d: decode: %v", seed, err)
				}
				if !reflect.DeepEqual(plain(msg), plain(back)) {
					t.Fatalf("seed %d: round trip changed the message:\n sent %#v\n got  %#v", seed, msg, back)
				}
				again, err := wire.Append(nil, back)
				if err != nil {
					t.Fatalf("seed %d: re-encode: %v", seed, err)
				}
				if string(again) != string(data) {
					t.Fatalf("seed %d: re-encoding is not byte-identical", seed)
				}
			}
		})
	}
}

// TestBufferAppendReusable pins the encoder a caller keeps: one Buffer,
// reused across every registered type's samples, appends each envelope onto
// the bytes already in dst, leaving them as they were, and encodes exactly
// what Append encodes. Decodes that fail in between leave nothing behind in
// the recycled Readers: every envelope still decodes to its message.
func TestBufferAppendReusable(t *testing.T) {
	var b wire.Buffer
	var stream []byte
	for _, id := range wire.Types() {
		c, _ := wire.CodecFor(id)
		for seed := uint64(0); seed < 8; seed++ {
			msg := c.Sample(seed)
			want, err := wire.Append(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			start := len(stream)
			before := string(stream)
			if stream, err = b.Append(stream, msg); err != nil {
				t.Fatal(err)
			}
			if string(stream[:start]) != before || string(stream[start:]) != string(want) {
				t.Fatalf("%s seed %d: Buffer.Append wrote % x after the prefix, want % x", c.Name, seed, stream[start:], want)
			}
			if _, err := wire.Decode(want[:len(want)-1]); err == nil && len(want) > 1 {
				t.Fatalf("%s seed %d: a truncated envelope decoded", c.Name, seed)
			}
			back, err := wire.Decode(stream[start:])
			if err != nil || !reflect.DeepEqual(plain(back), plain(msg)) {
				t.Fatalf("%s seed %d: decoded %#v, %v; want %#v", c.Name, seed, back, err, msg)
			}
		}
	}
	if _, err := b.Append(stream, "not registered"); err == nil {
		t.Fatal("unregistered message type must fail to encode")
	}
}

// TestDecodeRejectsMalformed covers the decode-hardening paths: empty
// input, unknown ids, truncation and trailing garbage all error cleanly.
func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := wire.Decode(nil); err == nil {
		t.Error("empty envelope must fail")
	}
	if _, err := wire.Decode([]byte{0xff}); err == nil {
		t.Error("unknown type id must fail")
	}
	// Truncate a real envelope at every split point.
	id := wire.Types()[0]
	c, _ := wire.CodecFor(id)
	full, err := wire.Append(nil, c.Sample(7))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if _, err := wire.Decode(full[:cut]); err == nil {
			t.Errorf("truncation at %d of %d decoded cleanly", cut, len(full))
		}
	}
	if _, err := wire.Decode(append(append([]byte(nil), full...), 0)); err == nil {
		t.Error("trailing byte must fail")
	}
	if _, err := wire.Append(nil, "not registered"); err == nil {
		t.Error("unregistered message type must fail to encode")
	}
}

// TestDecodedShardIsPooled: a decoded shard is drawn from the pool and held
// once, by the message — its one Release returns the buffer, after which the
// stale Shard value panics on use — and it copies the frame, so the frame's
// bytes can be reused at once.
func TestDecodedShardIsPooled(t *testing.T) {
	c, ok := wire.CodecFor(0x22) // cas.preWriteMsg
	if !ok {
		t.Fatal("cas wire types not registered")
	}
	sent := c.Sample(5)
	data, err := wire.Append(nil, sent)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if !reflect.DeepEqual(plain(msg), plain(sent)) {
		t.Fatalf("decoded %#v aliases the frame, want %#v", msg, sent)
	}
	shard := reflect.ValueOf(msg).FieldByName("Shard").Interface().(erasure.Shard)
	shard.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of a released decoded shard did not panic: the shard is not pooled")
		}
	}()
	shard.Retain()
}
