//go:build !amd64

package gf

// hasAVX2 is false off amd64: the word kernel does all of MulSlice.
const hasAVX2 = false

// mulVector has no vector kernel to run off amd64 and covers no bytes.
func mulVector(nib *[32]byte, src, dst []byte) int { return 0 }
