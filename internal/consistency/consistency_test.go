package consistency

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ioa"
)

// hist builds a history from op specs. Times are abstract step numbers.
type opSpec struct {
	client ioa.NodeID
	kind   ioa.OpKind
	in     string
	out    string
	inv    int
	resp   int // -1 = pending
}

func hist(specs ...opSpec) *ioa.History {
	h := ioa.NewHistory()
	for i, s := range specs {
		op := ioa.Op{
			ID:          i,
			Client:      s.client,
			Kind:        s.kind,
			InvokeStep:  s.inv,
			RespondStep: s.resp,
		}
		if s.in != "" {
			op.Input = []byte(s.in)
		}
		if s.kind == ioa.OpRead && s.resp >= 0 {
			op.Output = []byte(s.out)
		}
		h.Ops = append(h.Ops, op)
	}
	return h
}

var v0 = []byte("v0")

func w(client ioa.NodeID, val string, inv, resp int) opSpec {
	return opSpec{client: client, kind: ioa.OpWrite, in: val, inv: inv, resp: resp}
}

func r(client ioa.NodeID, val string, inv, resp int) opSpec {
	return opSpec{client: client, kind: ioa.OpRead, out: val, inv: inv, resp: resp}
}

func TestAtomicSequential(t *testing.T) {
	h := hist(
		w(1, "a", 0, 10),
		r(2, "a", 20, 30),
		w(1, "b", 40, 50),
		r(2, "b", 60, 70),
	)
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("sequential history should be atomic: %v", err)
	}
}

func TestAtomicInitialValue(t *testing.T) {
	h := hist(r(2, "v0", 0, 5))
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("reading the initial value is atomic: %v", err)
	}
}

func TestAtomicStaleReadRejected(t *testing.T) {
	// Read starts after write "b" completes but returns "a".
	h := hist(
		w(1, "a", 0, 10),
		w(1, "b", 20, 30),
		r(2, "a", 40, 50),
	)
	err := CheckAtomic(h, v0)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("stale read must violate atomicity, got %v", err)
	}
}

func TestAtomicConcurrentReadEitherValue(t *testing.T) {
	// A read concurrent with write "b" may return "a" or "b".
	for _, out := range []string{"a", "b"} {
		h := hist(
			w(1, "a", 0, 10),
			w(1, "b", 20, 60),
			r(2, out, 30, 50),
		)
		if err := CheckAtomic(h, v0); err != nil {
			t.Errorf("concurrent read of %q should be atomic: %v", out, err)
		}
	}
}

func TestAtomicNewOldInversionRejected(t *testing.T) {
	// Two sequential reads during a concurrent write: the second read must
	// not travel back in time.
	h := hist(
		w(1, "a", 0, 10),
		w(1, "b", 20, 100),
		r(2, "b", 30, 40),
		r(2, "a", 50, 60),
	)
	err := CheckAtomic(h, v0)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("new-old inversion must violate atomicity, got %v", err)
	}
}

func TestAtomicPendingWriteMayTakeEffect(t *testing.T) {
	// A write that never completes but whose value is read: allowed.
	h := hist(
		w(1, "a", 0, -1),
		r(2, "a", 10, 20),
	)
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("pending write may take effect: %v", err)
	}
}

func TestAtomicPendingWriteMayBeIgnored(t *testing.T) {
	h := hist(
		w(1, "a", 0, -1),
		r(2, "v0", 10, 20),
	)
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("pending write may be ignored: %v", err)
	}
}

func TestAtomicPendingReadIgnored(t *testing.T) {
	h := hist(
		w(1, "a", 0, 10),
		r(2, "", 20, -1),
	)
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("pending read constrains nothing: %v", err)
	}
}

func TestAtomicUnwrittenValueRejected(t *testing.T) {
	h := hist(r(2, "ghost", 0, 10))
	if err := CheckAtomic(h, v0); err == nil {
		t.Error("reading a never-written value must fail")
	}
}

func TestAtomicDuplicateValuesRejected(t *testing.T) {
	h := hist(
		w(1, "a", 0, 10),
		w(1, "a", 20, 30),
	)
	if err := CheckAtomic(h, v0); err == nil {
		t.Error("duplicate write values must be rejected")
	}
	// The errors that quote a value quote its length and a 16-byte prefix: a
	// 64 KiB value must not become a 200 KB message.
	big := strings.Repeat("v", 64<<10)
	err := CheckAtomic(hist(w(1, big, 0, 10), w(1, big, 20, 30)), v0)
	if err == nil || len(err.Error()) > 200 || !strings.Contains(err.Error(), `65536 bytes "vvvvvvvvvvvvvvvv"`) {
		t.Errorf("duplicate large value: want a short error naming length and prefix, got %d bytes: %.120v", len(fmt.Sprint(err)), err)
	}
}

func TestAtomicMultiWriterInterleaving(t *testing.T) {
	// Two writers; write "b" overlaps both reads, so it may be linearized
	// between them: a, r(a), b, r(b).
	h := hist(
		w(1, "a", 0, 50),
		w(3, "b", 10, 100),
		r(2, "a", 60, 70),
		r(2, "b", 80, 90),
	)
	if err := CheckAtomic(h, v0); err != nil {
		t.Errorf("want atomic: %v", err)
	}
	// Now writer order is fixed a then b, but reads see b then a: violation.
	h2 := hist(
		w(1, "a", 0, 5),
		w(3, "b", 10, 40),
		r(2, "b", 60, 70),
		r(2, "a", 80, 90),
	)
	if err := CheckAtomic(h2, v0); err == nil {
		t.Error("reads contradicting write real-time order must fail")
	}
}

func TestRegularHappyPath(t *testing.T) {
	h := hist(
		w(1, "a", 0, 10),
		r(2, "a", 20, 30),
		w(1, "b", 40, 80),
		r(2, "a", 50, 60), // concurrent with write b: old value allowed
		r(3, "b", 55, 70), // concurrent with write b: new value allowed
	)
	if err := CheckRegular(h, v0); err != nil {
		t.Errorf("regular history rejected: %v", err)
	}
}

func TestRegularNewOldInversionAllowed(t *testing.T) {
	// Regularity (unlike atomicity) permits new-old inversion between two
	// reads concurrent with the same write.
	h := hist(
		w(1, "a", 0, 10),
		w(1, "b", 20, 100),
		r(2, "b", 30, 40),
		r(2, "a", 50, 60),
	)
	if err := CheckRegular(h, v0); err != nil {
		t.Errorf("regularity should allow new-old inversion: %v", err)
	}
	if err := CheckAtomic(h, v0); err == nil {
		t.Error("sanity: atomicity must reject the same history")
	}
}

func TestRegularStaleReadRejected(t *testing.T) {
	h := hist(
		w(1, "a", 0, 10),
		w(1, "b", 20, 30),
		r(2, "a", 40, 50),
	)
	var v *Violation
	if err := CheckRegular(h, v0); !errors.As(err, &v) {
		t.Fatalf("stale read must violate regularity, got %v", err)
	}
}

func TestRegularInitialValue(t *testing.T) {
	h := hist(r(2, "v0", 0, 5))
	if err := CheckRegular(h, v0); err != nil {
		t.Errorf("initial read should be regular: %v", err)
	}
	h2 := hist(
		w(1, "a", 0, 10),
		r(2, "v0", 20, 30),
	)
	if err := CheckRegular(h2, v0); err == nil {
		t.Error("initial value after a completed write must be rejected")
	}
}

func TestRegularRequiresSingleWriter(t *testing.T) {
	h := hist(
		w(1, "a", 0, 10),
		w(3, "b", 20, 30),
	)
	if err := CheckRegular(h, v0); err == nil {
		t.Error("CheckRegular must reject multi-writer histories")
	}
}

// TestCheckDispatch pins the one condition-name dispatch: each name reaches
// its own checker (a new-old inversion is regular but not atomic) and an
// unknown name is an error.
func TestCheckDispatch(t *testing.T) {
	h := hist(
		w(1, "a", 0, 10),
		w(1, "b", 20, 100),
		r(2, "b", 30, 40),
		r(2, "a", 50, 60),
	)
	for cond, holds := range map[string]bool{"atomic": false, "regular": true} {
		if err := Check(cond, h); (err == nil) != holds {
			t.Errorf("Check(%q) = %v, want holds=%v", cond, err, holds)
		}
	}
	if err := Check("linearizable", h); err == nil {
		t.Error("an unknown condition must be an error")
	}
}

func TestAtomicIsStrongerThanRegular(t *testing.T) {
	// Property: histories accepted by CheckAtomic (single writer) are also
	// accepted by CheckRegular.
	histories := []*ioa.History{
		hist(w(1, "a", 0, 10), r(2, "a", 20, 30)),
		hist(w(1, "a", 0, 10), w(1, "b", 20, 60), r(2, "b", 30, 50)),
		hist(r(2, "v0", 0, 5), w(1, "a", 10, 20), r(3, "a", 30, 40)),
	}
	for i, h := range histories {
		if err := CheckAtomic(h, v0); err != nil {
			t.Fatalf("history %d: %v", i, err)
		}
		if err := CheckRegular(h, v0); err != nil {
			t.Errorf("history %d accepted by atomic but rejected by regular: %v", i, err)
		}
	}
}

func TestLargeSequentialHistoryFast(t *testing.T) {
	// 400 alternating writes/reads: the search must be near-linear here.
	specs := make([]opSpec, 0, 400)
	tstep := 0
	last := "v0"
	for i := 0; i < 200; i++ {
		val := string(rune('a'+i%26)) + string(rune('0'+i/26))
		specs = append(specs, w(1, val, tstep, tstep+1))
		tstep += 2
		specs = append(specs, r(2, val, tstep, tstep+1))
		tstep += 2
		last = val
	}
	_ = last
	h := hist(specs...)
	if err := CheckAtomic(h, v0); err != nil {
		t.Fatal(err)
	}
}
