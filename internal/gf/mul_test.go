package gf

import (
	"fmt"
	"runtime"
	"testing"
)

// kernels are the three ways to compute dst[i] ^= c*src[i], each returning
// how many leading bytes of src it covered: MulSlice as callers see it, the
// word kernel alone (the reference on every platform), and the vector
// kernel alone, which covers the 32-byte multiples of src where the CPU has
// AVX2 and nothing elsewhere.
var kernels = []struct {
	name string
	run  func(f *Field, c Elem, src, dst []byte) int
}{
	{"MulSlice", func(f *Field, c Elem, src, dst []byte) int { f.MulSlice(c, src, dst); return len(src) }},
	{"word", func(f *Field, c Elem, src, dst []byte) int { mulWord(&f.mul[c], src, dst); return len(src) }},
	{"vector", func(f *Field, c Elem, src, dst []byte) int { return mulVector(&f.nib[c], src, dst) }},
}

// TestKernelsAgree holds each kernel to scalar Mul for every coefficient and
// every length 0-200. Source and destination sit at offsets 0-31 in their
// buffers, cycled so that every (src, dst) offset pair occurs, and the
// destination buffer runs past dst on both sides: a byte outside the
// covered part of dst must keep its pattern.
func TestKernelsAgree(t *testing.T) {
	t.Logf("AVX2 kernel: %v", hasAVX2)
	f := NewField()
	const maxLen, offsets, guard = 200, 32, 40
	srcBuf := make([]byte, offsets+maxLen)
	for i := range srcBuf {
		srcBuf[i] = byte(i*167 + 13)
	}
	got := make([]byte, offsets+maxLen+guard)
	want := make([]byte, len(got))
	for c := 0; c < Order; c++ {
		for n := 0; n <= maxLen; n++ {
			so, do := n%offsets, (c+7*n)%offsets
			src := srcBuf[so : so+n]
			for _, k := range kernels {
				for i := range got {
					got[i] = byte(i * 29)
				}
				copy(want, got)
				covered := k.run(f, Elem(c), src, got[do:do+n])
				for i := 0; i < covered; i++ {
					want[do+i] ^= byte(f.Mul(Elem(c), Elem(src[i])))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s c=%#x len=%d src offset %d dst offset %d: buffer byte %d (dst byte %d) = %#x, want %#x",
							k.name, c, n, so, do, i, i-do, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMulSliceShortDstPanics gives MulSlice a dst one byte shorter than src:
// it must panic with a bounds error before any kernel writes to dst.
func TestMulSliceShortDstPanics(t *testing.T) {
	f := NewField()
	for _, n := range []int{1, 32, 33, 64, 200} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i + 1)
		}
		dst := make([]byte, n-1)
		err := func() (err any) {
			defer func() { err = recover() }()
			f.MulSlice(0x57, src, dst)
			return nil
		}()
		if _, ok := err.(runtime.Error); !ok {
			t.Fatalf("len(src)=%d len(dst)=%d: recovered %v, want a runtime bounds error", n, n-1, err)
		}
		for i, b := range dst {
			if b != 0 {
				t.Fatalf("len(src)=%d: dst byte %d written (%#x) before the panic", n, i, b)
			}
		}
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

// BenchmarkMulSlice measures the Reed-Solomon inner loop dst[i] ^= c*src[i]
// on the shard sizes the coded-register workloads hit: 342 B (a 1 KiB value
// over k = 3; not a multiple of 32, so the word kernel's tail shows), 4 KiB,
// and 21,846 B (a 64 KiB value over k = 3). c=1 exercises the XOR fast
// path, c=0x57 the general-coefficient kernels.
func BenchmarkMulSlice(b *testing.B) {
	f := NewField()
	for _, n := range []int{342, 4096, 21846} {
		src := make([]byte, n)
		dst := make([]byte, n)
		for i := range src {
			src[i] = byte(i*31 + 7)
		}
		for _, c := range []Elem{1, 0x57} {
			b.Run(fmt.Sprintf("c=0x%02x/%dB", c, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f.MulSlice(c, src, dst)
				}
			})
		}
	}
}
