package gf

import (
	"testing"
	"testing/quick"
)

func TestFieldBasics(t *testing.T) {
	f := NewField()
	tests := []struct {
		name string
		got  Elem
		want Elem
	}{
		{"add identity", f.Add(0x53, 0), 0x53},
		{"add self cancels", f.Add(0x53, 0x53), 0},
		{"mul identity", f.Mul(0x53, 1), 0x53},
		{"mul zero", f.Mul(0x53, 0), 0},
		{"known product", f.Mul(0x02, 0x8e), 0x01}, // 2 * 0x8e = 0x11c ^ 0x11d = 1
		{"generator squared", f.Mul(2, 2), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("got %#x, want %#x", tt.got, tt.want)
			}
		})
	}
}

func TestInverses(t *testing.T) {
	f := NewField()
	for a := 1; a < Order; a++ {
		inv, err := f.Inv(Elem(a))
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if got := f.Mul(Elem(a), inv); got != 1 {
			t.Fatalf("a=%d: a*a^-1 = %d, want 1", a, got)
		}
	}
	if _, err := f.Inv(0); err == nil {
		t.Error("Inv(0) should fail")
	}
	if _, err := f.Div(5, 0); err == nil {
		t.Error("Div(5, 0) should fail")
	}
}

func TestDivMulRoundTrip(t *testing.T) {
	f := NewField()
	check := func(a, b Elem) bool {
		if b == 0 {
			return true
		}
		q, err := f.Div(a, b)
		if err != nil {
			return false
		}
		return f.Mul(q, b) == a
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestFieldAxioms property-tests associativity, commutativity and
// distributivity over random triples.
func TestFieldAxioms(t *testing.T) {
	f := NewField()
	axioms := func(a, b, c Elem) bool {
		if f.Add(a, b) != f.Add(b, a) {
			return false
		}
		if f.Mul(a, b) != f.Mul(b, a) {
			return false
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			return false
		}
		if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
			return false
		}
		// a*(b+c) == a*b + a*c
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	if err := quick.Check(axioms, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	f := NewField()
	for a := 1; a < 20; a++ {
		acc := Elem(1)
		for n := 0; n < 10; n++ {
			if got := f.Pow(Elem(a), n); got != acc {
				t.Fatalf("Pow(%d, %d) = %d, want %d", a, n, got, acc)
			}
			acc = f.Mul(acc, Elem(a))
		}
	}
	if got := f.Pow(0, 0); got != 1 {
		t.Errorf("Pow(0,0) = %d, want 1 (empty product)", got)
	}
	if got := f.Pow(0, 3); got != 0 {
		t.Errorf("Pow(0,3) = %d, want 0", got)
	}
}

func TestExpIsPeriodic(t *testing.T) {
	f := NewField()
	for i := 0; i < 3*(Order-1); i++ {
		if f.Exp(i) != f.Exp(i%(Order-1)) {
			t.Fatalf("Exp not periodic at %d", i)
		}
	}
	if f.Exp(-1) != f.Exp(Order-2) {
		t.Error("Exp should handle negative exponents")
	}
}

func TestMulSlice(t *testing.T) {
	f := NewField()
	src := []byte{1, 2, 3, 0, 255}
	dst := make([]byte, len(src))
	f.MulSlice(7, src, dst)
	for i := range src {
		want := byte(f.Mul(7, Elem(src[i])))
		if dst[i] != want {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want)
		}
	}
	// c = 1 must XOR src into dst.
	dst2 := []byte{9, 9, 9, 9, 9}
	f.MulSlice(1, src, dst2)
	for i := range src {
		if dst2[i] != 9^src[i] {
			t.Fatalf("MulSlice c=1 mismatch at %d", i)
		}
	}
	// c = 0 must be a no-op.
	before := append([]byte(nil), dst...)
	f.MulSlice(0, src, dst)
	for i := range dst {
		if dst[i] != before[i] {
			t.Fatal("MulSlice c=0 modified dst")
		}
	}
}

func TestMatrixInvert(t *testing.T) {
	f := NewField()
	for n := 1; n <= 8; n++ {
		v, err := Vandermonde(f, n, n)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := v.Invert(f)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prod, err := v.Mul(f, inv)
		if err != nil {
			t.Fatal(err)
		}
		id := Identity(n)
		for i := range prod.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("n=%d: V * V^-1 != I at index %d", n, i)
			}
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	f := NewField()
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 1)
	m.Set(1, 1, 2) // identical rows => singular
	if _, err := m.Invert(f); err == nil {
		t.Error("inverting a singular matrix should fail")
	}
	rect := NewMatrix(2, 3)
	if _, err := rect.Invert(f); err == nil {
		t.Error("inverting a non-square matrix should fail")
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	f := NewField()
	v, err := Vandermonde(f, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every 3-row submatrix must be invertible (MDS property).
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			for c := b + 1; c < 8; c++ {
				sub, err := v.SubMatrix([]int{a, b, c})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sub.Invert(f); err != nil {
					t.Fatalf("rows (%d,%d,%d): %v", a, b, c, err)
				}
			}
		}
	}
}

func TestSubMatrixRange(t *testing.T) {
	m := NewMatrix(2, 2)
	if _, err := m.SubMatrix([]int{5}); err == nil {
		t.Error("out-of-range row should fail")
	}
}

func BenchmarkMul(b *testing.B) {
	f := NewField()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Mul(Elem(i), Elem(i>>8))
	}
}
