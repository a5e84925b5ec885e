package register

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ioa"
)

func TestTagOrdering(t *testing.T) {
	tests := []struct {
		a, b Tag
		less bool
	}{
		{Tag{Seq: 1, Writer: 1}, Tag{Seq: 2, Writer: 1}, true},
		{Tag{Seq: 2, Writer: 1}, Tag{Seq: 1, Writer: 1}, false},
		{Tag{Seq: 1, Writer: 1}, Tag{Seq: 1, Writer: 2}, true}, // writer id breaks ties
		{Tag{Seq: 1, Writer: 2}, Tag{Seq: 1, Writer: 1}, false},
		{Tag{Seq: 1, Writer: 1}, Tag{Seq: 1, Writer: 1}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.less {
			t.Errorf("%v < %v = %v, want %v", tt.a, tt.b, got, tt.less)
		}
	}
}

// TestTagTotalOrder property-checks trichotomy and transitivity.
func TestTagTotalOrder(t *testing.T) {
	prop := func(s1, s2, s3 int16, w1, w2, w3 uint8) bool {
		a := Tag{Seq: int64(s1), Writer: ioa.NodeID(w1)}
		b := Tag{Seq: int64(s2), Writer: ioa.NodeID(w2)}
		c := Tag{Seq: int64(s3), Writer: ioa.NodeID(w3)}
		// Trichotomy.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a.Equal(b) {
			n++
		}
		if n != 1 {
			return false
		}
		// Transitivity.
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTagSortAgreesWithLess(t *testing.T) {
	tags := []Tag{{Seq: 3, Writer: 1}, {Seq: 1, Writer: 2}, {Seq: 1, Writer: 1}, {Seq: 2, Writer: 9}, {Seq: 0, Writer: 0}}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Less(tags[j]) })
	for i := 1; i < len(tags); i++ {
		if tags[i].Less(tags[i-1]) {
			t.Fatalf("sort produced out-of-order tags: %v", tags)
		}
	}
	if !tags[0].IsZero() {
		t.Error("zero tag should sort first")
	}
}

func TestTagNextAndMax(t *testing.T) {
	tg := Tag{Seq: 4, Writer: 7}
	next := tg.Next(9)
	if next.Seq != 5 || next.Writer != 9 {
		t.Errorf("Next = %v", next)
	}
	if !tg.Less(next) {
		t.Error("Next must be strictly larger")
	}
	if got := MaxTag(tg, next); !got.Equal(next) {
		t.Errorf("MaxTag = %v", got)
	}
	if got := MaxTag(next, tg); !got.Equal(next) {
		t.Errorf("MaxTag symmetric = %v", got)
	}
}

func TestTagBitsAndString(t *testing.T) {
	if (Tag{}).Bits() != 96 {
		t.Error("tag accounting changed; update bound slack in tests")
	}
	if s := (Tag{Seq: 2, Writer: 101}).String(); s != "(2,w101)" {
		t.Errorf("String = %q", s)
	}
}

func TestMakeValueUniqueAndDeterministic(t *testing.T) {
	seen := make(map[string]bool)
	for seed := uint64(1); seed <= 200; seed++ {
		v := MakeValue(32, seed)
		if len(v) != 32 {
			t.Fatalf("len = %d", len(v))
		}
		if seen[string(v)] {
			t.Fatalf("duplicate value at seed %d", seed)
		}
		seen[string(v)] = true
		if !bytes.Equal(v, MakeValue(32, seed)) {
			t.Fatal("MakeValue not deterministic")
		}
	}
	// Tiny sizes are bumped to hold the uniqueness header.
	if got := len(MakeValue(2, 1)); got != 8 {
		t.Errorf("minimum size = %d, want 8", got)
	}
}

// TestMakeValueGolden pins MakeValue's bytes: the injectivity experiments and
// every pinned fingerprint are built on them, so a faster fill must produce
// exactly the byte-at-a-time xorshift stream. The digest was taken from the
// byte-at-a-time implementation.
func TestMakeValueGolden(t *testing.T) {
	const golden = "3207814f6c3a8dc105a1d7961b10c720ecd2a8478060afa2893ee6b86d28b13a"
	h := sha256.New()
	for _, size := range []int{0, 8, 9, 63, 1024, 65536} {
		for _, seed := range []uint64{0, 1, 1 << 40} {
			h.Write(MakeValue(size, seed))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("MakeValue digest %s, want %s", got, golden)
	}
}

func TestValueBits(t *testing.T) {
	if ValueBits(nil) != 0 {
		t.Error("nil value has 0 bits")
	}
	if ValueBits(make([]byte, 16)) != 128 {
		t.Error("16 bytes = 128 bits")
	}
}
