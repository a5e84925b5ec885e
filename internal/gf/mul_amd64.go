package gf

// hasAVX2 reports whether the CPU implements AVX2 and the operating system
// saves the 256-bit registers across context switches; only then may
// mulAVX2 run.
var hasAVX2 = avx2Usable()

// avx2Usable reads CPUID leaf 1 (OSXSAVE, AVX), XCR0 (the OS enabled SSE and
// AVX register state) and CPUID leaf 7 (AVX2).
func avx2Usable() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// mulVector runs the AVX2 kernel over the 32-byte multiples of src, where
// the CPU has AVX2, and returns how many leading bytes it covered (0 without
// AVX2). len(dst) >= len(src).
func mulVector(nib *[32]byte, src, dst []byte) int {
	n := len(src) &^ 31
	if !hasAVX2 || n == 0 {
		return 0
	}
	mulAVX2(nib, src[:n], dst[:n])
	return n
}

// mulAVX2 computes dst[i] ^= c*src[i] from c's split-nibble tables nib.
// len(src) is a multiple of 32 and len(dst) >= len(src).
//
//go:noescape
func mulAVX2(nib *[32]byte, src, dst []byte)

// cpuid executes CPUID for leaf (EAX) and sub-leaf (ECX).
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv reads XCR0. Only valid once CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
