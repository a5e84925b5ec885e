package gf

import (
	"fmt"
	"testing"
)

// BenchmarkMulSlice measures the Reed-Solomon inner loop dst[i] ^= c*src[i]
// on a 4 KiB block, the shard size the coded-register experiments hit.
// c=1 exercises the XOR fast path, the general coefficient the table kernel.
func BenchmarkMulSlice(b *testing.B) {
	f := NewField()
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	for _, c := range []Elem{1, 0x57} {
		b.Run(fmt.Sprintf("c=0x%02x", c), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.MulSlice(c, src, dst)
			}
		})
	}
}

// TestMulSliceMatchesScalar pins the slice kernel (XOR path, word loop and
// byte tail) to the scalar definition.
func TestMulSliceMatchesScalar(t *testing.T) {
	f := NewField()
	src := make([]byte, 1027) // deliberately not a multiple of 8
	for i := range src {
		src[i] = byte(i*89 + 3)
	}
	for _, c := range []Elem{0, 1, 2, 0x1d, 0x57, 0xfe, 0xff} {
		a := make([]byte, len(src))
		want := make([]byte, len(src))
		for i := range src {
			a[i] = byte(i * 7)
			want[i] = byte(i*7) ^ byte(f.Mul(c, Elem(src[i])))
		}
		f.MulSlice(c, src, a)
		for i := range src {
			if a[i] != want[i] {
				t.Fatalf("MulSlice c=%#x byte %d: got %#x want %#x", c, i, a[i], want[i])
			}
		}
	}
}
