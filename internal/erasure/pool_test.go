package erasure

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestSizeClass(t *testing.T) {
	prevClass, prevCap := -1, 0
	for n := 1; n <= 1<<17; n++ {
		class, capacity := sizeClass(n)
		if class < 0 || class >= len(pools) {
			t.Fatalf("n=%d: class %d outside the pool table", n, class)
		}
		if capacity < n || (n > 4 && 4*capacity >= 5*n) {
			t.Fatalf("n=%d: capacity %d (want n <= capacity < 1.25n)", n, capacity)
		}
		// Classes ascend with n, and one class has one capacity.
		if class < prevClass || (class == prevClass) != (capacity == prevCap) {
			t.Fatalf("n=%d: class %d cap %d after class %d cap %d", n, class, capacity, prevClass, prevCap)
		}
		prevClass, prevCap = class, capacity
	}
}

// mustPanic runs f and returns the panic's message, failing the test if
// there is none.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
			}
		}()
		f()
		t.Fatalf("%s did not panic", what)
	}()
	return msg
}

// TestOwnershipGuard pins the pool's rule: a shard's buffer survives until
// its last holder releases it, the last Release poisons it in a test binary,
// a Shard value whose buffer was recycled panics at its next Retain or
// Release, a holder count never goes negative, and a shard built by hand is
// not counted at all.
func TestOwnershipGuard(t *testing.T) {
	if !poison {
		t.Fatal("a test binary must poison released buffers")
	}
	s := NewShard(2, 100)
	for i := range s.Data {
		s.Data[i] = byte(i)
	}
	want := bytes.Clone(s.Data)
	s.Retain() // a second holder
	s.Release()
	if !bytes.Equal(s.Data, want) {
		t.Fatal("the buffer changed while a holder still held it")
	}
	data := s.Data
	s.Release() // the last holder
	if !bytes.Equal(data, bytes.Repeat([]byte{poisonByte}, len(data))) {
		t.Fatalf("the last Release left %x, want the poison byte throughout", data[:8])
	}
	if msg := mustPanic(t, "Retain of a recycled shard", s.Retain); !strings.Contains(msg, "recycled") {
		t.Errorf("stale Retain panicked with %q", msg)
	}
	if msg := mustPanic(t, "Release of a recycled shard", s.Release); !strings.Contains(msg, "recycled") {
		t.Errorf("stale Release panicked with %q", msg)
	}

	// Two holders that both believe they hold the last count: the count goes
	// negative before the generation moves.
	s = NewShard(0, 10)
	s.buf.refs.Store(0)
	if msg := mustPanic(t, "Release past zero", s.Release); !strings.Contains(msg, "no holder") {
		t.Errorf("negative count panicked with %q", msg)
	}

	hand := Shard{Index: 1, Data: []byte{1, 2, 3}}
	hand.Retain()
	hand.Release()
	hand.Release()
	if !bytes.Equal(hand.Data, []byte{1, 2, 3}) {
		t.Error("Release touched a shard built by hand")
	}
}

// TestEncodeIntoReusedBuffers: EncodeOne writes every byte of its shard, so
// a buffer that comes back poisoned from the pool encodes exactly as a
// fresh one does, for every code with n <= 9 and lengths across the header,
// padding and bulk cases.
func TestEncodeIntoReusedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reused := 0
	forEachCode(t, func(c *Code) {
		for size := 0; size <= 3*c.k+40; size += 1 + size/8 {
			value := make([]byte, size)
			rng.Read(value)
			want := naiveEncode(c, value)
			for round := 0; round < 2; round++ {
				for i := 0; i < c.n; i++ {
					s, err := c.EncodeOne(value, i)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(s.Data, want[i]) {
						t.Fatalf("(%d,%d) %d-byte value, shard %d, round %d: %x, naive %x", c.n, c.k, size, i, round, s.Data, want[i])
					}
					if round == 1 {
						reused += int(s.gen)
					}
					s.Release()
				}
			}
		}
	})
	if reused == 0 {
		t.Fatal("no encode drew a recycled buffer: the test does not exercise reuse")
	}
}
