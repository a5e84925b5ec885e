package wire_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/register"
	"repro/internal/wire"

	// Register every algorithm's kinds.
	_ "repro/internal/abd"
	_ "repro/internal/cas"
	_ "repro/internal/coded"
)

// TestRegistryCoversAllAlgorithms pins the wire surface: every ABD, CAS and
// coded-register kind must be registered, in its package's assigned range.
// A new kind that forgets to register breaks the net backend at send time —
// this catches it at test time instead.
func TestRegistryCoversAllAlgorithms(t *testing.T) {
	kinds := wire.Kinds()
	if len(kinds) != 19 {
		t.Fatalf("table holds %d kinds, want 19 (4 abd + 8 cas + 7 coded)", len(kinds))
	}
	ranges := map[string][2]ioa.Kind{
		"abd.":   {0x10, 0x1f},
		"cas.":   {0x20, 0x2f},
		"coded.": {0x30, 0x3f},
	}
	for _, k := range kinds {
		name := wire.Name(k)
		matched := false
		for prefix, rng := range ranges {
			if strings.HasPrefix(name, prefix) {
				matched = true
				if k < rng[0] || k > rng[1] {
					t.Errorf("%s registered at 0x%02x outside its range [0x%02x, 0x%02x]",
						name, byte(k), byte(rng[0]), byte(rng[1]))
				}
			}
		}
		if !matched {
			t.Errorf("kind %q (0x%02x) has no known package prefix", name, byte(k))
		}
	}
}

// TestRoundTripEveryType round-trips deterministic samples of every
// registered kind: Decode(Append(nil, m)) must equal m structurally and
// re-encode to identical bytes.
func TestRoundTripEveryType(t *testing.T) {
	for _, k := range wire.Kinds() {
		t.Run(wire.Name(k), func(t *testing.T) {
			for seed := uint64(0); seed < 64; seed++ {
				msg := wire.Sample(k, seed)
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
// reused across every registered kind's samples, appends each frame onto
// the bytes already in dst, leaving them as they were, and encodes exactly
// what Append encodes. Decodes that fail in between leave nothing behind in
// the recycled Readers: every frame still decodes to its message.
func TestBufferAppendReusable(t *testing.T) {
	var b wire.Buffer
	var stream []byte
	for _, k := range wire.Kinds() {
		for seed := uint64(0); seed < 8; seed++ {
			msg := wire.Sample(k, seed)
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
				t.Fatalf("%s seed %d: Buffer.Append wrote % x after the prefix, want % x", wire.Name(k), seed, stream[start:], want)
			}
			if _, err := wire.Decode(want[:len(want)-1]); err == nil {
				t.Fatalf("%s seed %d: a truncated frame decoded", wire.Name(k), seed)
			}
			back, err := wire.Decode(stream[start:])
			if err != nil || !reflect.DeepEqual(plain(back), plain(msg)) {
				t.Fatalf("%s seed %d: decoded %#v, %v; want %#v", wire.Name(k), seed, back, err, msg)
			}
		}
	}
	before := string(stream)
	if out, err := b.Append(stream, &ioa.Msg{Kind: 0xee}); err == nil || string(out) != before {
		t.Fatal("an unregistered kind must fail to encode, leaving dst as it was")
	}
}

// TestDecodeRejectsMalformed covers the decode-hardening paths — an empty
// frame, an unregistered kind, a truncated header, a truncated body, a body
// that disagrees with its kind, trailing bytes — and the encoder's refusal
// of a message whose body does not fit its kind.
func TestDecodeRejectsMalformed(t *testing.T) {
	const query, queryAck, put, readFinAck = 0x10, 0x11, 0x12, 0x27 // abd, abd, abd, cas
	for _, c := range []struct {
		why   string
		frame []byte
	}{
		{"an empty frame", nil},
		{"an unregistered kind", []byte{0xff, 0x02, 0x02, 0x00}},
		{"a header cut after its kind", []byte{query}},
		{"a header cut in its tag", []byte{query, 0x02, 0x02}},
		{"a header-only kind with a body", []byte{query, 0x02, 0x02, 0x00, 0x01, 0x61}},
		{"a value body cut short", []byte{queryAck, 0x02, 0x02, 0x00, 0x05, 0x61}},
		{"a value body missing", []byte{put, 0x02, 0x02, 0x00}},
		{"an element presence byte that is not a bool", []byte{readFinAck, 0x02, 0x02, 0x00, 0x07}},
		{"a tag writer outside int32", []byte{query, 0x02, 0x02, 0x80, 0x80, 0x80, 0x80, 0x20}},
	} {
		if msg, err := wire.Decode(c.frame); err == nil {
			t.Errorf("%s (% x) decoded to %#v", c.why, c.frame, msg)
		}
	}
	// Truncate a real frame with a body at every split point.
	full, err := wire.Append(nil, wire.Sample(queryAck, 7))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := wire.Decode(full[:cut]); err == nil {
			t.Errorf("truncation at %d of %d decoded cleanly", cut, len(full))
		}
	}
	if _, err := wire.Decode(append(append([]byte(nil), full...), 0)); err == nil {
		t.Error("trailing byte must fail")
	}
	for _, m := range []ioa.Message{
		{Kind: 0xee},
		{Kind: query, Body: register.Value("x")},
		{Kind: queryAck},
		{Kind: put, Body: register.Value("x")},
		{Kind: readFinAck, Body: register.WriteElement{}},
	} {
		if _, err := wire.Append(nil, m); err == nil {
			t.Errorf("%#v encoded: its body does not fit its kind", m)
		}
	}
}

// TestHeaderBeforeBody pins the header as a frame's fixed prefix: Header
// reads the kind, RID and tag of every kind's sample, leaving the body's
// bytes, and DecodeBody completes the message Decode returns. A header-only
// message encodes into a warm buffer with no allocation, and decodes with
// none of its own: the Reader carves it from a slab (one allocation per 16
// messages, which AllocsPerRun's whole-number mean reads as 0).
func TestHeaderBeforeBody(t *testing.T) {
	for _, k := range wire.Kinds() {
		msg := wire.Sample(k, 11)
		data, err := wire.Append(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		hdr, body, err := wire.Header(data)
		if err != nil || hdr.Kind != k || hdr.RID != msg.RID || hdr.Tag != msg.Tag || hdr.Body != nil {
			t.Fatalf("%s: header %#v, %v; want kind, RID and tag of %#v", wire.Name(k), hdr, err, msg)
		}
		if msg.Body != nil && len(body) == 0 {
			t.Fatalf("%s: no body bytes for body %#v", wire.Name(k), msg.Body)
		}
		back, err := wire.DecodeBody(hdr, body)
		if err != nil || !reflect.DeepEqual(plain(back), plain(msg)) {
			t.Fatalf("%s: DecodeBody = %#v, %v; want %#v", wire.Name(k), back, err, msg)
		}
	}

	query := &ioa.Msg{Kind: 0x10, RID: 1 << 40, Tag: ioa.Tag{Seq: 9, Writer: 3}} // abd.queryMsg
	frame, err := wire.Append(nil, query)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if msg, err := wire.Decode(frame); err != nil || *msg != *query {
			t.Fatalf("decoded %#v, %v", msg, err)
		}
	}); n != 0 {
		t.Errorf("decoding a header-only frame allocates %.0f times, want 0: its message is carved from a slab", n)
	}
	var b wire.Buffer
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf, _ = b.Append(buf[:0], query) }); n != 0 {
		t.Errorf("encoding a header-only message allocates %.0f times, want 0", n)
	}
}

// TestDecodedShardIsPooled: a decoded shard is drawn from the pool and held
// once, by the message — its one Release returns the buffer, after which the
// stale Shard value panics on use — and it copies the frame, so the frame's
// bytes can be reused at once.
func TestDecodedShardIsPooled(t *testing.T) {
	const preWrite = 0x22 // cas.preWriteMsg
	sent := wire.Sample(preWrite, 5)
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
	shard := msg.Body.(register.WriteElement).Shard
	shard.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of a released decoded shard did not panic: the shard is not pooled")
		}
	}()
	shard.Retain()
}
