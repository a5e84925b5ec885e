package wire_test

import (
	"reflect"
	"testing"

	"repro/internal/erasure"
	"repro/internal/ioa"
	"repro/internal/wire"
)

var shardType = reflect.TypeOf(erasure.Shard{})

// plain returns a copy of msg with every shard in its body stripped of its
// pool handle, so a message decoded into pooled buffers compares equal to
// one built by hand.
func plain(msg ioa.Message) ioa.Msg {
	cp := *msg
	if cp.Body != nil {
		v := reflect.New(reflect.TypeOf(cp.Body)).Elem()
		v.Set(reflect.ValueOf(cp.Body))
		unpool(v)
		cp.Body = v.Interface()
	}
	return cp
}

// unpool strips the pool handle of every shard in v, an addressable value.
func unpool(v reflect.Value) {
	switch {
	case v.Type() == shardType:
		s := v.Interface().(erasure.Shard)
		v.Set(reflect.ValueOf(erasure.Shard{Index: s.Index, Data: s.Data}))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			unpool(v.Field(i))
		}
	}
}

// FuzzWireRoundTrip drives every registered kind through Encode/Decode with
// fuzz-chosen sample seeds. A sample's header comes from the seed, and each
// body codec's Sample covers its type's value space (optional elements
// present and absent, varying value and shard lengths), so one fuzz target
// round-trips the whole table — including kinds added after this test was
// written.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(1<<63 - 1))
	f.Add(uint64(0xdeadbeefcafe))
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, k := range wire.Kinds() {
			msg := wire.Sample(k, seed)
			data, err := wire.Append(nil, msg)
			if err != nil {
				t.Fatalf("%s: encode: %v", wire.Name(k), err)
			}
			back, err := wire.Decode(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", wire.Name(k), err)
			}
			if !reflect.DeepEqual(plain(msg), plain(back)) {
				t.Fatalf("%s: round trip changed the message:\n sent %#v\n got  %#v", wire.Name(k), msg, back)
			}
		}
	})
}

// FuzzWireDecodeRobust throws arbitrary bytes at Decode: it must never
// panic and never allocate beyond the input's own length, whatever the
// (possibly hostile) peer sent.
func FuzzWireDecodeRobust(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10}) // abd.queryMsg, the header cut after its kind
	// cas.readFinAck, RID 1, tag (1, w0), an element whose index is out of range
	f.Add([]byte{0x27, 0x02, 0x02, 0x00, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})
	for _, k := range wire.Kinds() {
		if data, err := wire.Append(nil, wire.Sample(k, 3)); err == nil {
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
			t.Fatalf("decoded %#v but cannot re-encode: %v", msg, err)
		}
		back, err := wire.Decode(again)
		if err != nil {
			t.Fatalf("re-encoded %#v fails to decode: %v", msg, err)
		}
		if !reflect.DeepEqual(plain(msg), plain(back)) {
			t.Fatalf("second round trip changed the message:\n first  %#v\n second %#v", msg, back)
		}
	})
}
