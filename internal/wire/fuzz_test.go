package wire_test

import (
	"reflect"
	"testing"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/wire"
)

var shardType = reflect.TypeOf(erasure.Shard{})

// plain returns msg with every shard field's pool handle set aside, so a
// message decoded into pooled buffers compares equal to one built by hand.
func plain(msg ioa.Message) ioa.Message {
	v := reflect.New(reflect.TypeOf(msg)).Elem()
	v.Set(reflect.ValueOf(msg))
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == shardType {
			s := f.Interface().(erasure.Shard)
			f.Set(reflect.ValueOf(erasure.Shard{Index: s.Index, Data: s.Data}))
		}
	}
	return v.Interface()
}

// FuzzWireRoundTrip drives every registered message type through
// Encode/Decode with fuzz-chosen sample seeds. Each codec's Sample covers
// its type's value space (optional fields present and absent, varying value
// and shard lengths), so one fuzz target round-trips the whole registry —
// including types added after this test was written.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(1<<63 - 1))
	f.Add(uint64(0xdeadbeefcafe))
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, id := range wire.Types() {
			c, _ := wire.CodecFor(id)
			msg := c.Sample(seed)
			data, err := wire.Append(nil, msg)
			if err != nil {
				t.Fatalf("%s: encode: %v", c.Name, err)
			}
			back, err := wire.Decode(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", c.Name, err)
			}
			if !reflect.DeepEqual(plain(msg), plain(back)) {
				t.Fatalf("%s: round trip changed the message:\n sent %#v\n got  %#v", c.Name, msg, back)
			}
		}
	})
}

// FuzzWireDecodeRobust throws arbitrary bytes at Decode: it must never
// panic and never allocate beyond the input's own length, whatever the
// (possibly hostile) peer sent.
func FuzzWireDecodeRobust(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10})
	f.Add([]byte{0x27, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	for _, id := range wire.Types() {
		c, _ := wire.CodecFor(id)
		if data, err := wire.Append(nil, c.Sample(3)); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.Decode(data)
		if err != nil {
			return
		}
		// Anything that decodes cleanly must survive a second round trip
		// unchanged. (Byte identity is not required: varint readers accept
		// non-minimal paddings that re-encode shorter.)
		again, err := wire.Append(nil, msg)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode: %v", msg, err)
		}
		back, err := wire.Decode(again)
		if err != nil {
			t.Fatalf("re-encoded %T fails to decode: %v", msg, err)
		}
		if !reflect.DeepEqual(plain(msg), plain(back)) {
			t.Fatalf("second round trip changed %T:\n first  %#v\n second %#v", msg, msg, back)
		}
	})
}
