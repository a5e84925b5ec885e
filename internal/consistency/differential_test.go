package consistency_test

// Differential tests for the consistency checkers: small random histories
// are checked by CheckAtomic / CheckRegular and, independently, by
// brute-force enumeration of every serialization the definitions admit (and,
// for atomicity, by the memoized linearization search of oracle_test.go).
// The verdicts must agree on every history. The three share no code or
// strategy (the production checker compares cluster zones and never builds a
// linearization; the search prunes with minimal-candidate ordering and
// memoization; the brute force literally tries all subset choices and
// permutations), so agreement over a hundred thousand adversarial histories
// pins the checkers' semantics, not their implementation.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/consistency"
	"repro/internal/ioa"
	"repro/internal/workload"
)

// bruteForceAtomic reports whether the history linearizes, by exhaustive
// enumeration: pending reads are discarded (they constrain nothing), every
// subset of pending writes may take effect, and every permutation of the
// chosen operations is tried against real-time order and register semantics.
func bruteForceAtomic(h *ioa.History, initial []byte) bool {
	ops := make([]ioa.Op, 0, len(h.Ops))
	var pendingWrites []ioa.Op
	for _, op := range h.Ops {
		switch {
		case op.Kind == ioa.OpRead && op.Pending():
			// dropped
		case op.Kind == ioa.OpWrite && op.Pending():
			pendingWrites = append(pendingWrites, op)
		default:
			ops = append(ops, op)
		}
	}
	for mask := 0; mask < 1<<len(pendingWrites); mask++ {
		chosen := append([]ioa.Op(nil), ops...)
		for i, w := range pendingWrites {
			if mask&(1<<i) != 0 {
				chosen = append(chosen, w)
			}
		}
		if permuteAtomic(chosen, nil, initial) {
			return true
		}
	}
	return false
}

// permuteAtomic recursively enumerates all orderings of remaining, appending
// to prefix, and reports whether any ordering is a legal linearization.
func permuteAtomic(remaining, prefix []ioa.Op, lastVal []byte) bool {
	if len(remaining) == 0 {
		return true
	}
	for i, op := range remaining {
		// Real-time order: op may come next only if no remaining operation
		// completed before op was invoked.
		ok := true
		for j, other := range remaining {
			if j != i && other.PrecedesOp(op) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		next := lastVal
		if op.Kind == ioa.OpWrite {
			next = op.Input
		} else if !bytes.Equal(op.Output, lastVal) {
			continue // read must return the current register value
		}
		rest := make([]ioa.Op, 0, len(remaining)-1)
		rest = append(rest, remaining[:i]...)
		rest = append(rest, remaining[i+1:]...)
		if permuteAtomic(rest, append(prefix, op), next) {
			return true
		}
	}
	return false
}

// bruteForceRegular checks single-writer regularity by enumeration: the
// writes of a single writer are totally ordered in real time, and a read is
// regular iff it can be inserted at some position in that order — consistent
// with real time — where it returns the immediately preceding write's value
// (or initial at position zero).
func bruteForceRegular(h *ioa.History, initial []byte) bool {
	var writes []ioa.Op
	for _, op := range h.Ops {
		if op.Kind == ioa.OpWrite {
			writes = append(writes, op)
		}
	}
	for i := 1; i < len(writes); i++ {
		if writes[i].InvokeStep < writes[i-1].InvokeStep {
			writes[i], writes[i-1] = writes[i-1], writes[i]
			i = 0
		}
	}
	for _, r := range h.Ops {
		if r.Kind != ioa.OpRead || r.Pending() {
			continue
		}
		ok := false
		for pos := 0; pos <= len(writes); pos++ {
			valid := true
			for j, w := range writes {
				inPrefix := j < pos
				if w.PrecedesOp(r) && !inPrefix {
					valid = false // write finished before the read began
				}
				if r.PrecedesOp(w) && inPrefix {
					valid = false // write began after the read finished
				}
			}
			if !valid {
				continue
			}
			want := initial
			if pos > 0 {
				want = writes[pos-1].Input
			}
			if bytes.Equal(r.Output, want) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// genHistory builds a random history of at most maxOps operations with
// distinct invoke/respond steps, unique write values and adversarial read
// outputs (written values, the initial value, or garbage). When
// sequentialWrites is set, writes come from one client and never overlap —
// the shape CheckRegular requires.
func genHistory(rng *rand.Rand, maxOps int, sequentialWrites bool) *ioa.History {
	k := 2 + rng.Intn(maxOps-1)
	steps := rng.Perm(64)[: 2*k : 2*k] // distinct step numbers
	next := 0
	takeStep := func() int { s := steps[next]; next++; return s }

	var values [][]byte
	h := &ioa.History{}
	writeSlot := 0 // monotone window for sequential writes
	for i := 0; i < k; i++ {
		op := ioa.Op{ID: i, Client: ioa.NodeID(10 + i)}
		if rng.Intn(2) == 0 {
			op.Kind = ioa.OpWrite
			op.Input = []byte(fmt.Sprintf("v%d", i))
			values = append(values, op.Input)
		} else {
			op.Kind = ioa.OpRead
		}
		a, b := takeStep(), takeStep()
		if a > b {
			a, b = b, a
		}
		op.InvokeStep, op.RespondStep = a, b
		if op.Kind == ioa.OpWrite && sequentialWrites {
			// Re-base the write into its own non-overlapping window. Writes
			// get even steps and reads odd ones below: kernel histories
			// never share a step between two events, and at exact ties the
			// notions of "overlaps" and "precedes" are ill-defined.
			op.Client = 1
			op.InvokeStep = 4 * writeSlot
			op.RespondStep = 4*writeSlot + 2
			writeSlot++
		}
		// A write may go pending only when writes are unconstrained: a
		// single sequential writer can have at most its last write pending
		// (handled below), since a busy client cannot invoke again.
		if rng.Intn(6) == 0 && !(sequentialWrites && op.Kind == ioa.OpWrite) {
			op.RespondStep = -1 // pending
		}
		h.Ops = append(h.Ops, op)
	}
	if sequentialWrites && writeSlot > 0 && rng.Intn(6) == 0 {
		for i := range h.Ops {
			if h.Ops[i].Kind == ioa.OpWrite && h.Ops[i].InvokeStep == 4*(writeSlot-1) {
				h.Ops[i].RespondStep = -1
			}
		}
	}
	if sequentialWrites {
		// Interleave reads with the write windows (odd steps only, so no
		// read event ever ties with a write event) so overlap cases occur.
		for i := range h.Ops {
			if h.Ops[i].Kind == ioa.OpRead {
				h.Ops[i].InvokeStep = 2*rng.Intn(2*writeSlot+4) - 1
				if h.Ops[i].RespondStep >= 0 {
					h.Ops[i].RespondStep = h.Ops[i].InvokeStep + 2*(1+rng.Intn(2*writeSlot+4))
				}
			}
		}
	}
	// Assign read outputs after all writes exist.
	for i := range h.Ops {
		if h.Ops[i].Kind != ioa.OpRead || h.Ops[i].Pending() {
			continue
		}
		switch pick := rng.Intn(8); {
		case pick == 0:
			h.Ops[i].Output = nil // initial value
		case pick == 1:
			h.Ops[i].Output = []byte("never-written")
		case len(values) > 0:
			h.Ops[i].Output = values[rng.Intn(len(values))]
		}
	}
	return h
}

// genAtomicHistory builds a random history for the atomicity differential.
// Unlike genHistory it draws steps with replacement from a span it picks per
// history, so narrow spans give equal-step ties and dense overlap (every
// operation concurrent with most others) and wide ones give mostly
// sequential histories. Pending writes are both read and unread; reads
// return written values, the initial value or a value nobody wrote. Values
// are "v<i>", so a history checked with initial "v0" may rewrite it.
func genAtomicHistory(rng *rand.Rand, maxOps int) *ioa.History {
	k := 1 + rng.Intn(maxOps)
	span := 2 + rng.Intn(4*k)
	h := &ioa.History{}
	var values [][]byte
	for i := 0; i < k; i++ {
		o := ioa.Op{ID: i, Client: ioa.NodeID(10 + i), Kind: ioa.OpRead}
		if rng.Intn(2) == 0 {
			o.Kind = ioa.OpWrite
			o.Input = []byte(fmt.Sprintf("v%d", i))
			values = append(values, o.Input)
		}
		o.InvokeStep = rng.Intn(span)
		o.RespondStep = o.InvokeStep + rng.Intn(span-o.InvokeStep)
		if rng.Intn(6) == 0 {
			o.RespondStep = -1
		}
		h.Ops = append(h.Ops, o)
	}
	for i := range h.Ops {
		if h.Ops[i].Kind != ioa.OpRead || h.Ops[i].Pending() {
			continue
		}
		switch pick := rng.Intn(10); {
		case pick == 0:
			h.Ops[i].Output = []byte("never-written")
		case pick == 1 || len(values) == 0:
			h.Ops[i].Output = nil
		case pick == 2:
			h.Ops[i].Output = []byte("v0")
		default:
			h.Ops[i].Output = values[rng.Intn(len(values))]
		}
	}
	return h
}

// TestAtomicDifferential holds CheckAtomic to the linearization search and
// the brute force over 120 000 random histories: 100 000 small enough for
// the brute force (three-way), the rest larger (zone test against the
// search). Every third history is checked from initial value "v0", which its
// first operation may rewrite.
func TestAtomicDifferential(t *testing.T) {
	small, large := 100000, 20000
	if testing.Short() {
		small, large = 10000, 2000
	}
	rng := rand.New(rand.NewSource(1))
	violating, linearizable, tied, readPending, unreadPending, rewrites := 0, 0, 0, 0, 0, 0
	for i := 0; i < small+large; i++ {
		maxOps := 6
		if i >= small {
			maxOps = 14
		}
		h := genAtomicHistory(rng, maxOps)
		if i%4 == 3 {
			h = genHistory(rng, 6, false) // distinct steps: the kernel's shape
		}
		var initial []byte
		if i%3 == 0 {
			initial = []byte("v0")
		}
		got := consistency.CheckAtomic(h, initial) == nil
		want := dfsAtomic(h, initial)
		if got != want {
			t.Fatalf("case %d: CheckAtomic says %t, search says %t, initial %q, history:\n%v", i, got, want, initial, h.Ops)
		}
		if i < small {
			if brute := bruteForceAtomic(h, initial); brute != want {
				t.Fatalf("case %d: search says %t, brute force says %t, initial %q, history:\n%v", i, want, brute, initial, h.Ops)
			}
		}
		if want {
			linearizable++
		} else {
			violating++
		}
		sh := shapeOf(h, initial)
		tied += sh.tied
		readPending += sh.readPending
		unreadPending += sh.unreadPending
		rewrites += sh.rewrite
	}
	t.Logf("%d linearizable, %d violating; %d with response/invocation ties, %d with read and %d with unread pending writes, %d rewriting a read initial value",
		linearizable, violating, tied, readPending, unreadPending, rewrites)
	// The generators must actually exercise both verdicts and every
	// convention for the differential to mean anything.
	for name, n := range map[string]int{"linearizable": linearizable, "violating": violating, "tied": tied,
		"read-pending-write": readPending, "unread-pending-write": unreadPending, "initial-rewriting": rewrites} {
		if n < (small+large)/100 {
			t.Errorf("degenerate sample: only %d %s histories", n, name)
		}
	}
}

// historyShape flags (0 or 1 each) the shapes the zone test's conventions
// exist for, so the differential can prove its sample covers them.
type historyShape struct{ tied, readPending, unreadPending, rewrite int }

func shapeOf(h *ioa.History, initial []byte) historyShape {
	var sh historyShape
	read := map[string]bool{}
	for _, o := range h.Ops {
		if o.Kind == ioa.OpRead && !o.Pending() {
			read[string(o.Output)] = true
		}
	}
	for i, o := range h.Ops {
		for j, p := range h.Ops {
			if i != j && o.RespondStep == p.InvokeStep {
				sh.tied = 1 // concurrent, by the strict-precedence convention
			}
		}
		if o.Kind != ioa.OpWrite {
			continue
		}
		switch {
		case o.Pending() && read[string(o.Input)]:
			sh.readPending = 1
		case o.Pending():
			sh.unreadPending = 1
		}
		if bytes.Equal(o.Input, initial) && read[string(initial)] {
			sh.rewrite = 1
		}
	}
	return sh
}

// TestRegularDifferential compares CheckRegular against the brute force on
// single-writer histories.
func TestRegularDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	agreeViolating, agreeRegular := 0, 0
	for i := 0; i < 3000; i++ {
		h := genHistory(rng, 6, true)
		got := consistency.CheckRegular(h, nil) == nil
		want := bruteForceRegular(h, nil)
		if got != want {
			t.Fatalf("case %d: CheckRegular says %t, brute force says %t, history:\n%v", i, got, want, h.Ops)
		}
		if want {
			agreeRegular++
		} else {
			agreeViolating++
		}
	}
	if agreeViolating == 0 || agreeRegular == 0 {
		t.Fatalf("degenerate sample: %d regular, %d violating", agreeRegular, agreeViolating)
	}
}

// op builds a completed operation for the known-history table.
func op(id int, client ioa.NodeID, kind ioa.OpKind, val string, invoke, respond int) ioa.Op {
	o := ioa.Op{ID: id, Client: client, Kind: kind, InvokeStep: invoke, RespondStep: respond}
	if kind == ioa.OpWrite {
		o.Input = []byte(val)
	} else if val != "" {
		o.Output = []byte(val)
	}
	return o
}

// TestKnownHistories pins the checkers (and the brute forces) to hand-built
// histories with known verdicts, including the classic violations.
func TestKnownHistories(t *testing.T) {
	cases := []struct {
		name            string
		ops             []ioa.Op
		atomic, regular bool
	}{
		{
			name: "stale read after completed write",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 2, ioa.OpRead, "", 2, 3), // returns initial after write completed
			},
			atomic: false, regular: false,
		},
		{
			name: "read of overlapping write",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 5),
				op(1, 2, ioa.OpRead, "a", 1, 2),
			},
			atomic: true, regular: true,
		},
		{
			name: "new-old inversion between two reads",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 1, ioa.OpWrite, "b", 2, 9),
				op(2, 2, ioa.OpRead, "b", 3, 4), // sees the overlapping write...
				op(3, 3, ioa.OpRead, "a", 5, 6), // ...then a later read regresses
			},
			atomic: false, regular: true, // the regression is legal under regularity
		},
		{
			name: "read returns never-written value",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 2, ioa.OpRead, "zz", 2, 3),
			},
			atomic: false, regular: false,
		},
		{
			name: "pending write may take effect",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, -1),
				op(1, 2, ioa.OpRead, "a", 1, 2),
			},
			atomic: true, regular: true,
		},
		{
			name: "value from the future",
			ops: []ioa.Op{
				op(0, 2, ioa.OpRead, "a", 0, 1),
				op(1, 1, ioa.OpWrite, "a", 2, 3), // write invoked after the read completed
			},
			atomic: false, regular: false,
		},
		{
			name: "sequential writes then fresh read",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 1, ioa.OpWrite, "b", 2, 3),
				op(2, 2, ioa.OpRead, "b", 4, 5),
			},
			atomic: true, regular: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &ioa.History{Ops: tc.ops}
			if got := consistency.CheckAtomic(h, nil) == nil; got != tc.atomic {
				t.Errorf("CheckAtomic = %t, want %t", got, tc.atomic)
			}
			if got := bruteForceAtomic(h, nil); got != tc.atomic {
				t.Errorf("bruteForceAtomic = %t, want %t", got, tc.atomic)
			}
			if got := consistency.CheckRegular(h, nil) == nil; got != tc.regular {
				t.Errorf("CheckRegular = %t, want %t", got, tc.regular)
			}
			if got := bruteForceRegular(h, nil); got != tc.regular {
				t.Errorf("bruteForceRegular = %t, want %t", got, tc.regular)
			}
		})
	}
}

// TestSeededRunDifferential feeds real kernel histories (seeded ABD runs,
// which must be atomic) through both the checker and the brute force.
func TestSeededRunDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 2, Readers: 2, MultiWriter: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := workload.Run(cl, workload.Spec{
			Seed: seed, Writes: 3, Reads: 3, TargetNu: 2, ValueBytes: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := consistency.CheckAtomic(res.History, nil); err != nil {
			t.Errorf("seed %d: checker rejects a real ABD history: %v", seed, err)
		}
		if !bruteForceAtomic(res.History, nil) {
			t.Errorf("seed %d: brute force rejects a real ABD history", seed)
		}
	}
}

// TestAtomicScale checks a 10^5-operation simulator history (ABD, four
// writers kept concurrently active) in well under a second; a checker
// quadratic in history length takes minutes here.
func TestAtomicScale(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a 10^5-op simulator run")
	}
	cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 4, Readers: 4, MultiWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(cl, workload.Spec{
		Seed: 1, Writes: 50000, Reads: 50000, TargetNu: 4, ValueBytes: 16, MaxSteps: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.History.Ops); n < 100000 {
		t.Fatalf("history has %d ops, want 10^5", n)
	}
	start := time.Now()
	if err := consistency.CheckAtomic(res.History, nil); err != nil {
		t.Fatalf("checker rejects a real ABD history: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("CheckAtomic took %v on %d ops, want < 1s", d, len(res.History.Ops))
	} else {
		t.Logf("CheckAtomic: %d ops in %v", len(res.History.Ops), d)
	}
}
