package gf

import "testing"

// FuzzMatrixInverse feeds arbitrary square matrices over GF(2^8) to the
// Gauss-Jordan inverter: whenever Invert succeeds, M * M^-1 must be the
// identity and the inverse must invert back; whenever it fails, the matrix
// must actually be singular (re-inverting a reported inverse never happens),
// which the fuzzer cross-checks by confirming no panic and a stable error.
func FuzzMatrixInverse(f *testing.F) {
	f.Add(uint8(2), []byte{1, 0, 0, 1})
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(2), []byte{0, 0, 0, 0})
	f.Add(uint8(4), []byte{1, 1, 1, 1, 1, 2, 4, 8, 1, 3, 9, 27, 1, 4, 16, 64})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%8 + 1
		if len(data) < n*n {
			t.Skip()
		}
		field := NewField()
		m := NewMatrix(n, n)
		for i := 0; i < n*n; i++ {
			m.Data[i] = Elem(data[i])
		}
		inv, err := m.Invert(field)
		if err != nil {
			return // singular input: a legal outcome, just must not panic
		}
		prod, err := m.Mul(field, inv)
		if err != nil {
			t.Fatalf("Mul after successful Invert: %v", err)
		}
		id := Identity(n)
		for i := range prod.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("M * M^-1 != I at %d for n=%d matrix %v", i, n, m.Data)
			}
		}
		back, err := inv.Invert(field)
		if err != nil {
			t.Fatalf("inverse of a computed inverse reported singular: %v", err)
		}
		for i := range back.Data {
			if back.Data[i] != m.Data[i] {
				t.Fatalf("(M^-1)^-1 != M at %d for n=%d", i, n)
			}
		}
	})
}

// FuzzMulSlice holds MulSlice, which runs the vector kernel where the CPU
// has one, to the word kernel over a fuzzed coefficient, source bytes and
// source and destination offsets; bytes of the destination buffer outside
// dst must come out of both untouched.
func FuzzMulSlice(f *testing.F) {
	f.Add(uint8(0x57), uint8(0), uint8(0), make([]byte, 64))
	f.Add(uint8(2), uint8(3), uint8(29), []byte("a source whose length is not a multiple of 32"))
	f.Add(uint8(1), uint8(31), uint8(1), []byte{0xff, 0x00, 0x80})
	field := NewField()
	f.Fuzz(func(t *testing.T, c, srcOff, dstOff uint8, data []byte) {
		src := data[min(int(srcOff%32), len(data)):]
		do := int(dstOff % 32)
		got := make([]byte, do+len(src)+32)
		for i := range got {
			got[i] = byte(i*29) ^ c
		}
		want := append([]byte(nil), got...)
		field.MulSlice(Elem(c), src, got[do:do+len(src)])
		mulWord(&field.mul[c], src, want[do:do+len(src)])
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("c=%#x len=%d src offset %d dst offset %d: buffer byte %d = %#x, word kernel %#x",
					c, len(src), srcOff%32, do, i, got[i], want[i])
			}
		}
	})
}
