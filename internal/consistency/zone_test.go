package consistency

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ioa"
)

// mustViolate asserts err is an atomicity Violation blaming op blameID whose
// Detail contains every one of wants.
func mustViolate(t *testing.T, err error, blameID int, wants ...string) {
	t.Helper()
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want a *Violation, got %v", err)
	}
	if v.Op.ID != blameID {
		t.Errorf("blamed op %d, want op %d (%v)", v.Op.ID, blameID, err)
	}
	for _, want := range wants {
		if !strings.Contains(v.Detail, want) {
			t.Errorf("detail %q does not mention %q", v.Detail, want)
		}
	}
}

// TestZoneRules pins each of the three rules to the operation it blames and
// to a Detail naming the rule and both clusters' writes. Op IDs are the
// positions in the hist(...) call.
func TestZoneRules(t *testing.T) {
	cases := []struct {
		name  string
		h     *ioa.History
		blame int
		wants []string
	}{
		{
			name:  "read before write",
			h:     hist(r(2, "a", 0, 10), w(1, "a", 20, 30)),
			blame: 0,
			wants: []string{"read-before-write", "read op 0", "write op 1"},
		},
		{
			// a's cluster is ordered before b's by w(a) < r(b), and after it
			// by w(b) < r(a).
			name:  "forward zones overlap",
			h:     hist(w(1, "a", 0, 5), w(3, "b", 10, 40), r(2, "b", 60, 70), r(2, "a", 80, 90)),
			blame: 3,
			wants: []string{"forward zones overlap", "write op 0 [5,80]", "write op 1 [40,60]"},
		},
		{
			name:  "forward zones overlap, the later cluster's read to blame",
			h:     hist(w(1, "a", 0, 5), w(3, "b", 10, 40), r(2, "a", 60, 70), r(2, "b", 80, 90), r(4, "a", 85, 95)),
			blame: 4,
			wants: []string{"forward zones overlap", "write op 0", "write op 1"},
		},
		{
			// The stale read: w(b) completes strictly between w(a) and the
			// read of a.
			name:  "backward zone inside forward zone",
			h:     hist(w(1, "a", 0, 10), w(1, "b", 20, 30), r(2, "a", 40, 50)),
			blame: 2,
			wants: []string{"backward zone inside forward zone", "write op 1 [20,30]", "write op 0 [10,40]"},
		},
		{
			name:  "backward zone inside the initial value's zone",
			h:     hist(w(1, "a", 0, 10), r(2, "v0", 20, 30)),
			blame: 1,
			wants: []string{"backward zone inside forward zone", "write op 0 [0,10]", "the initial value [-inf,20]"},
		},
		{
			name:  "new-old inversion",
			h:     hist(w(1, "a", 0, 10), w(1, "b", 20, 100), r(2, "b", 30, 40), r(2, "a", 50, 60)),
			blame: 3,
			wants: []string{"backward zone inside forward zone", "write op 1 [30,40]", "write op 0 [10,50]"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustViolate(t, CheckAtomic(tc.h, v0), tc.blame, tc.wants...)
		})
	}
}

// TestStrictPrecedenceAtEqualSteps: a response and an invocation at the same
// step are concurrent (invocation t sits at 2t, response t at 2t+1), one
// step apart they are ordered.
func TestStrictPrecedenceAtEqualSteps(t *testing.T) {
	// The read of the initial value is invoked at the step w(a) responds:
	// concurrent, so it may be linearized first.
	if err := CheckAtomic(hist(w(1, "a", 0, 5), r(2, "v0", 5, 6)), v0); err != nil {
		t.Errorf("equal steps must be concurrent: %v", err)
	}
	mustViolate(t, CheckAtomic(hist(w(1, "a", 0, 4), r(2, "v0", 5, 6)), v0), 1, "backward zone inside forward zone")
	// Same at the other rule: the read responds at the step its write is
	// invoked.
	if err := CheckAtomic(hist(r(2, "a", 0, 5), w(1, "a", 5, 6)), v0); err != nil {
		t.Errorf("equal steps must be concurrent: %v", err)
	}
	mustViolate(t, CheckAtomic(hist(r(2, "a", 0, 4), w(1, "a", 5, 6)), v0), 0, "read-before-write")
	// And between two forward zones that share an end step.
	if err := CheckAtomic(hist(w(1, "a", 0, 1), r(2, "a", 4, 5), w(1, "b", 4, 6), r(2, "b", 8, 9)), v0); err != nil {
		t.Errorf("zones [1,4] and [6,8] touch nothing: %v", err)
	}
	if err := CheckAtomic(hist(w(1, "a", 0, 1), r(2, "a", 6, 7), w(1, "b", 4, 6), r(2, "b", 8, 9)), v0); err != nil {
		t.Errorf("zones [1,6] and [6,8] meet at a tie, which is concurrent: %v", err)
	}
	mustViolate(t, CheckAtomic(hist(w(1, "a", 0, 1), r(2, "a", 7, 8), w(1, "b", 4, 6), r(2, "b", 8, 9)), v0), 3, "forward zones overlap")
}

// TestPendingReadsDropped: a pending read constrains nothing, whatever it
// carries.
func TestPendingReadsDropped(t *testing.T) {
	h := hist(w(1, "a", 0, 10), w(1, "b", 20, 30), r(2, "", 40, -1))
	h.Ops[2].Output = []byte("a") // a stale value on a read that never returned
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("pending read must be dropped: %v", err)
	}
}

// TestPendingWriteRespondsAtInfinity: a pending write whose value is read
// must take effect, with the reads alone bounding its zone; one nobody reads
// is dropped entirely.
func TestPendingWriteRespondsAtInfinity(t *testing.T) {
	// Unread: w(b) and its read need not be ordered against it.
	if err := CheckAtomic(hist(w(1, "a", 0, -1), w(3, "b", 5, 6), r(2, "b", 7, 8)), v0); err != nil {
		t.Errorf("an unread pending write may never take effect: %v", err)
	}
	// Read twice, around a complete write of b: the two reads pin a's zone
	// to [20,50] although w(a) itself never responds.
	h := hist(w(1, "a", 0, -1), r(2, "a", 10, 20), w(3, "b", 30, 40), r(2, "a", 50, 60))
	mustViolate(t, CheckAtomic(h, v0), 3, "backward zone inside forward zone", "write op 2 [30,40]", "write op 0 [20,50]")
	// Read once: a may take effect after b.
	if err := CheckAtomic(hist(w(1, "a", 0, -1), w(3, "b", 30, 40), r(2, "a", 50, 60)), v0); err != nil {
		t.Errorf("a read pending write may take effect late: %v", err)
	}
}

// TestForeignValue: a completed read of a value nobody wrote (and that is not
// the initial value) is a violation for CheckAtomic, and for the online
// checker a verdict about that one carried value only.
func TestForeignValue(t *testing.T) {
	h := hist(w(1, "a", 0, 10), r(2, "x", 20, 30))
	mustViolate(t, CheckAtomic(h, v0), 1, "never written")
	if err := CheckAtomic(hist(r(2, "x", 0, 5), w(1, "a", 10, 20)), []byte("x")); err != nil {
		t.Errorf("the same read is fine when x is the initial value: %v", err)
	}
	seg := hist(r(2, "x", 0, 5), w(1, "a", 10, 20)).Ops
	var vals valueTable
	ids := vals.idsOf(seg)
	x, y, z, a := vals.id([]byte("x")), vals.id([]byte("y")), vals.id([]byte("z")), vals.id([]byte("a"))
	n := len(vals.vals)
	if err := checkZones(seg, ids, n, y); err == nil {
		t.Error("the zone test must fail from a carry the read does not match")
	}
	zones := func(ops []ioa.Op, ids []int32, v int32) error { return checkZones(ops, ids, n, v) }
	finals, err := checkSegment(seg, ids, []int32{y, x}, zones)
	if err != nil || len(finals) != 1 || finals[0] != a {
		t.Errorf("checkSegment = %v, %v; want the segment to pass under carry x and end with a (%d)", finals, err, a)
	}
	if _, err := checkSegment(seg, ids, []int32{y, z}, zones); err == nil {
		t.Error("checkSegment must fail when no carry explains the read")
	}
}

// TestInitialValueRewritten: a write may store the initial value again;
// reads of it then belong to whichever of the two their timing allows.
func TestInitialValueRewritten(t *testing.T) {
	// r(v0) before everything reads the initial value, the one after w(a)
	// reads the rewrite.
	h := hist(r(2, "v0", 0, 1), w(1, "a", 2, 3), w(1, "v0", 4, 5), r(2, "v0", 6, 7))
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("rewritten initial value: %v", err)
	}
	// Without the rewrite the late read is stale.
	mustViolate(t, CheckAtomic(hist(r(2, "v0", 0, 1), w(1, "a", 2, 3), r(2, "v0", 6, 7)), v0), 2, "the initial value")
	// A read overlapping w(a) but invoked before anything responded may
	// still be the initial value's even though the rewrite comes later.
	if err := CheckAtomic(hist(w(1, "a", 0, 3), r(2, "v0", 1, 9), w(3, "v0", 10, 11)), v0); err != nil {
		t.Errorf("early read of the initial value: %v", err)
	}
}

// TestOnlineViolationWrapper: a violation found at retirement keeps its
// "window k after m verified ops" context and still unwraps to the rule.
func TestOnlineViolationWrapper(t *testing.T) {
	c := NewOnlineChecker(nil, WithWindowOps(2))
	ops := hist(
		w(1, "a", 0, 1), r(2, "a", 2, 3), // retired clean
		w(3, "z", 4, 20),                                   // spans the next three, so no cut separates them
		w(1, "b", 5, 6), w(1, "c", 7, 8), r(2, "b", 9, 10), // stale read
		w(1, "d", 21, 22),
	).Ops
	var err error
	for _, op := range ops {
		err = c.Observe(op)
	}
	if err == nil {
		err = c.Result()
	}
	if err == nil || !strings.Contains(err.Error(), "online window 3 (after 2 verified ops)") {
		t.Fatalf("want a window-context error, got %v", err)
	}
	mustViolate(t, err, 5, "backward zone inside forward zone", "write op 4 [7,8]", "write op 3 [6,9]")
}

// TestValueTable: equal values share an ID and distinct values never do,
// whether the hash spreads them or sends them all to one chain; compact keeps
// exactly the values still named and renumbers them without confusing any.
func TestValueTable(t *testing.T) {
	for name, hash := range map[string]func([]byte) uint64{"maphash": nil, "one chain": func([]byte) uint64 { return 7 }} {
		vals := valueTable{hash: hash}
		a, b, c := vals.id([]byte("a")), vals.id([]byte("b")), vals.id([]byte("c"))
		if a == b || b == c || a == c {
			t.Errorf("%s: distinct values share an ID: %d %d %d", name, a, b, c)
		}
		if vals.id([]byte("a")) != a || vals.id([]byte("c")) != c || vals.id(nil) != vals.id([]byte{}) {
			t.Errorf("%s: equal values got different IDs", name)
		}
		window, carry := []int32{c, b, c}, []int32{b}
		vals.compact(window, carry)
		if len(vals.vals) != 2 || window[0] != window[2] || window[1] != carry[0] || window[0] == window[1] {
			t.Fatalf("%s: compact kept %d values, window %v carry %v", name, len(vals.vals), window, carry)
		}
		if vals.id([]byte("b")) != carry[0] || vals.id([]byte("c")) != window[0] {
			t.Errorf("%s: kept values changed identity across compact", name)
		}
		if again := vals.id([]byte("a")); again == window[0] || again == window[1] {
			t.Errorf("%s: a dropped value came back as a kept one's ID", name)
		}
	}
}

// TestSampledHashStaysExact: a long value is hashed by a sample, so two
// values that differ only in a byte the sample skips share a hash — and must
// still get distinct IDs from the chain's byte comparison, while equal bytes
// in different slices get the same one. Every sampled position, and the
// length, does reach the hash.
func TestSampledHashStaysExact(t *testing.T) {
	const size = 64 << 10
	a := make([]byte, size)
	for i := range a {
		a[i] = byte(i * 31)
	}
	b := append([]byte(nil), a...)
	b[sampleEdge+1] ^= 1 // just past the leading edge, long before the first interior word
	if sampleHash(a) != sampleHash(b) {
		t.Fatalf("byte %d is meant to be outside the sample", sampleEdge+1)
	}
	var vals valueTable
	ida, idb := vals.id(a), vals.id(b)
	if ida == idb {
		t.Fatal("two 64 KiB values differing in one unsampled byte share an ID")
	}
	if vals.id(append([]byte(nil), a...)) != ida || vals.id(append([]byte(nil), b...)) != idb {
		t.Fatal("equal bytes in a different slice got a different ID")
	}

	stride := (size - 2*sampleEdge - sampleWord) / (sampleWords + 1)
	sampled := []int{0, sampleEdge - 1, size - sampleEdge, size - 1}
	for w := 1; w <= sampleWords; w++ {
		sampled = append(sampled, sampleEdge+w*stride, sampleEdge+w*stride+sampleWord-1)
	}
	for _, i := range sampled {
		c := append([]byte(nil), a...)
		c[i] ^= 1
		if sampleHash(c) == sampleHash(a) {
			t.Errorf("flipping sampled byte %d left the hash unchanged", i)
		}
	}
	if zeros := make([]byte, size); sampleHash(zeros[:size-1]) == sampleHash(zeros) {
		t.Error("the length does not reach the hash")
	}
	// The shortest sampled value keeps every word inside the interior.
	for n := sampleWhole; n <= sampleWhole+2*sampleWord*(sampleWords+1); n++ {
		sampleHash(a[:n])
	}
}
