package erasure

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		n, k   int
		wantOK bool
	}{
		{5, 3, true},
		{1, 1, true},
		{255, 255, true},
		{3, 5, false},
		{5, 0, false},
		{256, 3, false},
		{0, 0, false},
	}
	for _, tt := range tests {
		_, err := New(tt.n, tt.k)
		if (err == nil) != tt.wantOK {
			t.Errorf("New(%d, %d): err=%v, wantOK=%v", tt.n, tt.k, err, tt.wantOK)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c, err := New(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	values := [][]byte{
		nil,
		{},
		{0x42},
		[]byte("hello shared memory"),
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	for _, v := range values {
		shards, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != 7 {
			t.Fatalf("got %d shards, want 7", len(shards))
		}
		got, err := c.Decode(shards[:3])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, v) {
			t.Errorf("round trip mismatch for %q", v)
		}
	}
}

// forEachCode runs f on every (n, k) code with n <= 9.
func forEachCode(t *testing.T, f func(c *Code)) {
	t.Helper()
	for n := 1; n <= 9; n++ {
		for k := 1; k <= n; k++ {
			c, err := New(n, k)
			if err != nil {
				t.Fatalf("New(%d, %d): %v", n, k, err)
			}
			f(c)
		}
	}
}

// TestGeneratorNormalised pins the shape New promises: identity on top, and
// a parity block whose first row and first column are all ones.
func TestGeneratorNormalised(t *testing.T) {
	forEachCode(t, func(c *Code) {
		for r := 0; r < c.n; r++ {
			for col := 0; col < c.k; col++ {
				got := c.matrix.At(r, col)
				switch {
				case r < c.k && got != gf.Elem(b2i(r == col)):
					t.Errorf("(%d,%d): top block entry (%d,%d) = %d, want identity", c.n, c.k, r, col, got)
				case r >= c.k && (r == c.k || col == 0) && got != 1:
					t.Errorf("(%d,%d): parity entry (%d,%d) = %d, want 1", c.n, c.k, r, col, got)
				case r >= c.k && got == 0:
					t.Errorf("(%d,%d): parity entry (%d,%d) is zero", c.n, c.k, r, col)
				}
			}
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDecodeFromAnySubset is the MDS pin: for every code with n <= 9, every
// k-subset of the shards decodes — the normalised generator lost no
// invertible submatrix — and decodes through the partial rebuild whenever
// the subset misses a data shard.
func TestDecodeFromAnySubset(t *testing.T) {
	value := []byte("the quick brown fox jumps over the lazy dog")
	forEachCode(t, func(c *Code) {
		shards, err := c.Encode(value)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<c.n; mask++ {
			if bits.OnesCount(uint(mask)) != c.k {
				continue
			}
			var subset []Shard
			for i := c.n - 1; i >= 0; i-- { // descending: order must not matter
				if mask&(1<<i) != 0 {
					subset = append(subset, shards[i])
				}
			}
			got, err := c.Decode(subset)
			if err != nil {
				t.Fatalf("(%d,%d) subset %b: %v", c.n, c.k, mask, err)
			}
			if !bytes.Equal(got, value) {
				t.Fatalf("(%d,%d) subset %b: wrong value", c.n, c.k, mask)
			}
		}
	})
}

func TestDecodeErrors(t *testing.T) {
	c, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := c.Encode([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(shards[:2]); err == nil {
		t.Error("decoding with k-1 shards should fail")
	}
	// Duplicate indices do not count twice.
	if _, err := c.Decode([]Shard{shards[0], shards[0], shards[0]}); err == nil {
		t.Error("decoding with duplicated shard should fail")
	}
	bad := []Shard{shards[0], shards[1], {Index: 99, Data: shards[2].Data}}
	if _, err := c.Decode(bad); err == nil {
		t.Error("out-of-range index should fail")
	}
	mixed := []Shard{shards[0], shards[1], {Index: 2, Data: []byte{1}}}
	if _, err := c.Decode(mixed); err == nil {
		t.Error("inconsistent shard length should fail")
	}
}

// naiveEncode is the definition the kernels are held to: lay the coded
// stream (length header, value, zero padding) out in full, cut it into k
// splits, and multiply by the generator one byte at a time.
func naiveEncode(c *Code, value []byte) [][]byte {
	shardLen := c.ShardSize(len(value))
	stream := make([]byte, c.k*shardLen)
	binary.BigEndian.PutUint32(stream, uint32(len(value)))
	copy(stream[4:], value)
	shards := make([][]byte, c.n)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		for p := range shards[i] {
			for j := 0; j < c.k; j++ {
				shards[i][p] ^= byte(c.field.Mul(c.matrix.At(i, j), gf.Elem(stream[j*shardLen+p])))
			}
		}
	}
	return shards
}

// TestEncodeMatchesNaive compares Encode and EncodeOne byte for byte with
// the naive matrix multiply, for every code with n <= 9 and every value
// length from 0 to 3k+9: shards shorter than the 4-byte header (it straddles
// splits), every padding length, and a bulk region of a few bytes.
func TestEncodeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	forEachCode(t, func(c *Code) {
		for size := 0; size <= 3*c.k+9; size++ {
			value := make([]byte, size)
			rng.Read(value)
			want := naiveEncode(c, value)
			all, err := c.Encode(value)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.n; i++ {
				one, err := c.EncodeOne(value, i)
				if err != nil {
					t.Fatal(err)
				}
				if one.Index != i || all[i].Index != i {
					t.Fatalf("(%d,%d) shard %d carries index %d / %d", c.n, c.k, i, one.Index, all[i].Index)
				}
				if !bytes.Equal(one.Data, want[i]) || !bytes.Equal(all[i].Data, want[i]) {
					t.Fatalf("(%d,%d) %d-byte value, shard %d: EncodeOne %x, Encode %x, naive %x",
						c.n, c.k, size, i, one.Data, all[i].Data, want[i])
				}
			}
		}
	})
	c, err := New(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte("abc123"), 33)
	if _, err := c.EncodeOne(value, 9); err == nil {
		t.Error("EncodeOne out of range should fail")
	}
	if _, err := c.EncodeOne(value, -1); err == nil {
		t.Error("EncodeOne negative index should fail")
	}
}

func TestShardSize(t *testing.T) {
	c, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, valueLen := range []int{0, 1, 2, 3, 100, 1024} {
		value := make([]byte, valueLen)
		shards, err := c.Encode(value)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(shards[0].Data), c.ShardSize(valueLen); got != want {
			t.Errorf("valueLen=%d: shard size %d, want %d", valueLen, got, want)
		}
	}
}

// TestDecodeRandomSubsetsProperty is a property-based test: for random
// (n, k), value and shard subset, Decode(Encode(v)) == v.
func TestDecodeRandomSubsetsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(8)
		n := k + r.Intn(8)
		c, err := New(n, k)
		if err != nil {
			return false
		}
		value := make([]byte, r.Intn(200))
		r.Read(value)
		shards, err := c.Encode(value)
		if err != nil {
			return false
		}
		perm := r.Perm(n)
		chosen := make([]Shard, k)
		for i := 0; i < k; i++ {
			chosen[i] = shards[perm[i]]
		}
		got, err := c.Decode(chosen)
		if err != nil {
			return false
		}
		return bytes.Equal(got, value)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestStorageFraction(t *testing.T) {
	// A shard of an (n, k) code must carry ~1/k of the value bits: this is
	// the arithmetic behind every storage-cost bound in the paper.
	c, err := New(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	valueLen := 4096
	shardBits := 8 * c.ShardSize(valueLen)
	valueBits := 8 * valueLen
	ratio := float64(shardBits) / float64(valueBits)
	if ratio < 0.25 || ratio > 0.26 {
		t.Errorf("shard/value bit ratio = %f, want ~1/k = 0.25", ratio)
	}
}

func BenchmarkEncode(b *testing.B) {
	c, err := New(21, 11)
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 64<<10)
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	c, err := New(21, 11)
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 64<<10)
	shards, err := c.Encode(value)
	if err != nil {
		b.Fatal(err)
	}
	subset := shards[10:21]
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(subset); err != nil {
			b.Fatal(err)
		}
	}
}
