package erasure

import (
	"bytes"
	"testing"
)

// BenchmarkEncodeDecode measures a full encode of a 4 KiB value into an
// (9, 5) code followed by a worst-case decode (all data shards lost, so the
// decoder must invert a parity submatrix every iteration).
func BenchmarkEncodeDecode(b *testing.B) {
	c, err := New(9, 5)
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 4096)
	for i := range value {
		value[i] = byte(i * 131)
	}
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shards, err := c.Encode(value)
		if err != nil {
			b.Fatal(err)
		}
		got, err := c.Decode(shards[4:])
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !bytes.Equal(got, value) {
			b.Fatal("round trip mismatch")
		}
	}
}

// bench64K is the large-value shape of the live-casgc-64k workload: a 64 KiB
// value under the (5, 3) code.
func bench64K(b *testing.B) (*Code, []byte) {
	c, err := New(5, 3)
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 64<<10)
	for i := range value {
		value[i] = byte(i*131 + i>>8)
	}
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	return c, value
}

// BenchmarkEncode64K measures what a write pays: all n shards of one value
// (Encode is the EncodeOne per server the cas and coded clients run).
func BenchmarkEncode64K(b *testing.B) {
	c, value := bench64K(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeParity64K measures a read that lost data shard 0 and has to
// rebuild it through a parity shard.
func BenchmarkDecodeParity64K(b *testing.B) {
	c, value := bench64K(b)
	shards, err := c.Encode(value)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(shards[1:]); err != nil {
			b.Fatal(err)
		}
	}
}
