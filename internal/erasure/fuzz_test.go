package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

func indices(shards []Shard) []int {
	idx := make([]int, len(shards))
	for i, s := range shards {
		idx[i] = s.Index
	}
	return idx
}

// FuzzErasureRoundTrip checks the MDS contract on arbitrary inputs: encode a
// value under an (n, k) code, lose up to n-k shards (chosen by a fuzzed bit
// mask), and the remaining shards must decode to exactly the original value
// — first all of them, then a fuzzed choice of exactly k, in a fuzzed order,
// so that Decode rebuilds any set of missing data splits from any set of
// parity shards, not only from the lowest survivors.
func FuzzErasureRoundTrip(f *testing.F) {
	f.Add(uint8(5), uint8(3), []byte("hello, world"), uint16(0b10001), uint64(1))
	f.Add(uint8(1), uint8(1), []byte{}, uint16(0), uint64(0))
	f.Add(uint8(9), uint8(5), bytes.Repeat([]byte{0xab}, 300), uint16(0b1111), uint64(7))
	f.Add(uint8(12), uint8(4), []byte{0, 0, 0, 0}, uint16(0xffff), uint64(42))
	f.Add(uint8(5), uint8(3), bytes.Repeat([]byte("0123456789"), 50), uint16(0b00110), uint64(3))
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, value []byte, lossMask uint16, pick uint64) {
		n := int(nRaw)%16 + 1
		k := int(kRaw)%n + 1
		if len(value) > 1<<12 {
			value = value[:1<<12]
		}
		code, err := New(n, k)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", n, k, err)
		}
		shards, err := code.Encode(value)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if len(shards) != n {
			t.Fatalf("Encode produced %d shards, want %d", len(shards), n)
		}
		// Lose shards where the mask has a 1 bit, stopping at the n-k
		// erasure budget the MDS property guarantees against.
		kept := make([]Shard, 0, n)
		lost := 0
		for i, s := range shards {
			if lossMask&(1<<i) != 0 && lost < n-k {
				lost++
				continue
			}
			kept = append(kept, s)
		}
		got, err := code.Decode(kept)
		if err != nil {
			t.Fatalf("Decode with %d/%d shards lost: %v", lost, n, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("round trip mismatch: n=%d k=%d lost=%d got %d bytes, want %d", n, k, lost, len(got), len(value))
		}
		rand.New(rand.NewSource(int64(pick))).Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
		got, err = code.Decode(kept[:k])
		if err != nil {
			t.Fatalf("Decode from %d shuffled survivors: %v", k, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("round trip mismatch from shards %v: n=%d k=%d got %d bytes, want %d", indices(kept[:k]), n, k, len(got), len(value))
		}
	})
}
