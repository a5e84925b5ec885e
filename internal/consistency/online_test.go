package consistency_test

// Differential tests for the online windowed checker: the OnlineChecker must
// agree with CheckAtomic, and under WithCondition("regular") with
// CheckRegular, on every history — random adversarial ones, the known-verdict
// table, and fuzzed Observe/Retire interleavings — at every window size,
// including pathologically small ones that force a retirement on nearly
// every op.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/ioa"
)

// sortedOps returns the history's ops in invocation order and at
// non-negative steps, as the sink contract requires (genHistory assigns
// random steps in slice order, and invokes reads at step -1 under a single
// writer). The shift moves every event alike, so no verdict changes.
func sortedOps(h *ioa.History) []ioa.Op {
	ops := append([]ioa.Op(nil), h.Ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].InvokeStep < ops[j].InvokeStep })
	if shift := -ops[0].InvokeStep; shift > 0 {
		for i := range ops {
			ops[i].InvokeStep += shift
			if !ops[i].Pending() {
				ops[i].RespondStep += shift
			}
		}
	}
	return ops
}

// feedOnline streams ops into a fresh checker for cond with the given
// window, forcing a Retire after every retireEvery-th op (0 = never force),
// and returns the final verdict.
func feedOnline(cond string, ops []ioa.Op, window, retireEvery int) error {
	c := consistency.NewOnlineChecker(nil, consistency.WithWindowOps(window), consistency.WithCondition(cond))
	for i, op := range ops {
		c.Observe(op)
		if retireEvery > 0 && (i+1)%retireEvery == 0 {
			c.Retire()
		}
	}
	return c.Result()
}

// TestOnlineDifferential compares the online checker against the offline
// checker of its condition over thousands of random small histories (with
// one sequential writer under regularity), across window sizes and forced
// retirement cadences.
func TestOnlineDifferential(t *testing.T) {
	for _, cond := range []string{"atomic", "regular"} {
		t.Run(cond, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			agreeViolating, agreeHolding := 0, 0
			for i := 0; i < 2000; i++ {
				h := genHistory(rng, 6, cond == "regular")
				want := consistency.Check(cond, h) == nil
				ops := sortedOps(h)
				window := 1 + rng.Intn(4)
				retireEvery := rng.Intn(3)
				if got := feedOnline(cond, ops, window, retireEvery) == nil; got != want {
					t.Fatalf("case %d (window %d, retire %d): online says %t, offline says %t, history:\n%v",
						i, window, retireEvery, got, want, ops)
				}
				if want {
					agreeHolding++
				} else {
					agreeViolating++
				}
			}
			if agreeViolating == 0 || agreeHolding == 0 {
				t.Fatalf("degenerate sample: %d holding, %d violating", agreeHolding, agreeViolating)
			}
		})
	}
}

// TestOnlineKnownHistories pins the online checker to a known-verdict table,
// under both conditions, at several window sizes. Every history has one
// sequential writer, so both conditions apply.
func TestOnlineKnownHistories(t *testing.T) {
	cases := []struct {
		name            string
		ops             []ioa.Op
		atomic, regular bool
	}{
		{
			name: "stale read after completed write",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 2, ioa.OpRead, "", 2, 3),
			},
			atomic:  false,
			regular: false,
		},
		{
			name: "read of overlapping write",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 5),
				op(1, 2, ioa.OpRead, "a", 1, 2),
			},
			atomic:  true,
			regular: true,
		},
		{
			name: "new-old inversion between two reads",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 1, ioa.OpWrite, "b", 2, 9),
				op(2, 2, ioa.OpRead, "b", 3, 4),
				op(3, 3, ioa.OpRead, "a", 5, 6),
			},
			atomic:  false,
			regular: true,
		},
		{
			name: "read returns never-written value",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 2, ioa.OpRead, "zz", 2, 3),
			},
			atomic:  false,
			regular: false,
		},
		{
			name: "pending write may take effect",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, -1),
				op(1, 2, ioa.OpRead, "a", 1, 2),
			},
			atomic:  true,
			regular: true,
		},
		{
			name: "value from the future",
			ops: []ioa.Op{
				op(0, 2, ioa.OpRead, "a", 0, 1),
				op(1, 1, ioa.OpWrite, "a", 2, 3),
			},
			atomic:  false,
			regular: false,
		},
		{
			name: "sequential writes then fresh read",
			ops: []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 1, ioa.OpWrite, "b", 2, 3),
				op(2, 2, ioa.OpRead, "b", 4, 5),
			},
			atomic:  true,
			regular: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &ioa.History{Ops: tc.ops}
			ops := sortedOps(h)
			for cond, want := range map[string]bool{"atomic": tc.atomic, "regular": tc.regular} {
				if got := consistency.Check(cond, h) == nil; got != want {
					t.Fatalf("Check(%q) = %t, want %t (table drifted?)", cond, got, want)
				}
				for _, window := range []int{1, 2, 3, consistency.DefaultWindowOps} {
					for _, retireEvery := range []int{0, 1, 2} {
						if got := feedOnline(cond, ops, window, retireEvery) == nil; got != want {
							t.Errorf("online %s (window %d, retire %d) = %t, want %t", cond, window, retireEvery, got, want)
						}
					}
				}
			}
		})
	}
}

// TestOnlineSeededViolation verifies the checker localizes an injected
// violation deep in a long clean stream: a stale read thousands of ops past
// the last retirement boundary must still fail, and everything before it
// must have been retired with bounded window occupancy.
func TestOnlineSeededViolation(t *testing.T) {
	const n = 5000
	c := consistency.NewOnlineChecker(nil, consistency.WithWindowOps(64))
	step := 0
	var last string
	for i := 0; i < n; i++ {
		last = fmt.Sprintf("v%d", i)
		if err := c.Observe(op(i, 1, ioa.OpWrite, last, step, step+1)); err != nil {
			t.Fatalf("op %d: unexpected violation: %v", i, err)
		}
		step += 2
	}
	if c.OpsVerified() < n-128 {
		t.Fatalf("frontier lagging: verified %d of %d", c.OpsVerified(), n)
	}
	if mw := c.MaxWindow(); mw > 65 {
		t.Fatalf("window exceeded bound: %d", mw)
	}
	// A read of a long-retired value: new-old inversion against the frontier.
	if err := c.Observe(op(n, 2, ioa.OpRead, "v0", step, step+1)); err == nil && c.Result() == nil {
		t.Fatal("stale read of a retired value not caught")
	}
}

// TestOnlineResultMidStream verifies Result is callable mid-stream with
// in-flight extras: a completed read of a write that is still open (its
// ticket unsettled) must not be misreported as a violation.
func TestOnlineResultMidStream(t *testing.T) {
	c := consistency.NewOnlineChecker(nil)
	// The write w is invoked at step 0 and still pending at snapshot time;
	// a read completed inside w's window already returned its value and was
	// emitted... except feed ordering holds it behind w, so both arrive as
	// extras here.
	inflight := []ioa.Op{
		op(0, 1, ioa.OpWrite, "a", 0, -1),
		op(1, 2, ioa.OpRead, "a", 1, 2),
	}
	if err := c.Result(inflight...); err != nil {
		t.Fatalf("mid-stream Result with in-flight write: %v", err)
	}
	// Same shape, but the read returns a value no in-flight write explains.
	bad := []ioa.Op{
		op(0, 1, ioa.OpWrite, "a", 0, -1),
		op(1, 2, ioa.OpRead, "zz", 1, 2),
	}
	if err := c.Result(bad...); err == nil {
		t.Fatal("unexplained read among extras not caught")
	}
}

// TestOnlineWindowBound verifies peak memory tracks the window, not the
// history: a long low-concurrency stream with periodic quiescence retires
// almost everything.
func TestOnlineWindowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := consistency.NewOnlineChecker(nil, consistency.WithWindowOps(32))
	reg := []byte(nil)
	step := 0
	var vals [][]byte
	vals = append(vals, nil)
	for i := 0; i < 20000; i++ {
		var o ioa.Op
		if rng.Intn(2) == 0 {
			val := fmt.Sprintf("w%d", i)
			o = op(i, ioa.NodeID(1+rng.Intn(2)), ioa.OpWrite, val, step, step+1)
			reg = []byte(val)
		} else {
			o = op(i, ioa.NodeID(1+rng.Intn(2)), ioa.OpRead, string(reg), step, step+1)
		}
		step += 2
		if err := c.Observe(o); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := c.Result(); err != nil {
		t.Fatalf("clean sequential stream rejected: %v", err)
	}
	if mw := c.MaxWindow(); mw > 33 {
		t.Fatalf("MaxWindow = %d, want <= window+1", mw)
	}
	if c.OpsVerified() < 20000-64 {
		t.Fatalf("OpsVerified = %d of 20000", c.OpsVerified())
	}
	_ = vals
}

// TestOnlineRegular pins what the regular condition adds to the stream: a
// new-old inversion passes under regularity but not atomicity, a stale read
// is caught against a value retired in an earlier segment, and a second
// writer or an unknown condition is misuse, not a verdict.
func TestOnlineRegular(t *testing.T) {
	regular := func(window int) *consistency.OnlineChecker {
		return consistency.NewOnlineChecker(nil, consistency.WithWindowOps(window), consistency.WithCondition("regular"))
	}
	t.Run("new-old inversion", func(t *testing.T) {
		ops := []ioa.Op{
			op(0, 1, ioa.OpWrite, "a", 0, 1),
			op(1, 1, ioa.OpWrite, "b", 2, 9),
			op(2, 2, ioa.OpRead, "b", 3, 4),
			op(3, 3, ioa.OpRead, "a", 5, 6),
		}
		for window := 1; window <= 4; window++ {
			if err := feedOnline("regular", ops, window, 1); err != nil {
				t.Errorf("window %d: regular rejects the inversion: %v", window, err)
			}
			if feedOnline("atomic", ops, window, 1) == nil {
				t.Errorf("window %d: atomic accepts the inversion", window)
			}
		}
	})
	t.Run("stale read across retirement", func(t *testing.T) {
		for _, tc := range []struct {
			read string
			ok   bool
		}{{"b", true}, {"a", false}, {"", false}} {
			c := regular(64)
			for _, o := range []ioa.Op{
				op(0, 1, ioa.OpWrite, "a", 0, 1),
				op(1, 2, ioa.OpRead, "a", 2, 3),
				op(2, 1, ioa.OpWrite, "b", 4, 5),
			} {
				if err := c.Observe(o); err != nil {
					t.Fatal(err)
				}
			}
			// The read invokes after every op before it responded: a clean
			// cut, so Retire frees all three and carries b alone.
			if err := c.Observe(op(3, 2, ioa.OpRead, tc.read, 6, 7)); err != nil {
				t.Fatal(err)
			}
			if got := c.Retire(); got != 3 || c.WindowLag() != 1 {
				t.Fatalf("retired %d ops leaving %d, want 3 leaving the read", got, c.WindowLag())
			}
			if err := c.Result(); (err == nil) != tc.ok {
				t.Errorf("read of %q after the boundary: verdict %v, want ok=%t", tc.read, err, tc.ok)
			}
		}
	})
	t.Run("second writer", func(t *testing.T) {
		c := regular(1)
		if err := c.Observe(op(0, 1, ioa.OpWrite, "a", 0, 1)); err != nil {
			t.Fatal(err)
		}
		if c.Retire() != 0 || c.Observe(op(1, 2, ioa.OpRead, "a", 2, 3)) != nil || c.OpsVerified() != 1 {
			t.Fatalf("the first write did not retire cleanly (verified %d)", c.OpsVerified())
		}
		// The first writer's write is long retired; the second is still misuse.
		err := c.Observe(op(2, 3, ioa.OpWrite, "b", 4, 5))
		if err == nil || !strings.Contains(err.Error(), "single writer") {
			t.Fatalf("second writer: Observe = %v, want a single-writer misuse", err)
		}
		if c.Observe(op(3, 2, ioa.OpRead, "a", 6, 7)) == nil || c.Result() == nil {
			t.Error("the misuse must be sticky")
		}
		if feedOnline("atomic", []ioa.Op{op(0, 1, ioa.OpWrite, "a", 0, 1), op(1, 3, ioa.OpWrite, "b", 2, 3)}, 1, 1) != nil {
			t.Error("atomicity takes any number of writers")
		}
	})
	t.Run("unknown condition", func(t *testing.T) {
		c := consistency.NewOnlineChecker(nil, consistency.WithCondition("linearizable"))
		if c.Observe(op(0, 1, ioa.OpWrite, "a", 0, 1)) == nil || c.Result() == nil {
			t.Error("an unknown condition must be a misuse")
		}
	})
}

// FuzzOnlineChecker fuzzes interleaved Observe/Retire orderings: each input
// byte becomes one operation (kind, overlap span, pending flag, read-output
// selector, retire bit) of a well-formed concurrent history. An even cond
// judges atomicity at a fuzzed window size against CheckAtomic; an odd one
// judges regularity against CheckRegular at windows 1-4, with the writes
// made one client's and sequential (a write byte that would overlap the
// previous write becomes a read).
func FuzzOnlineChecker(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x12}, uint8(1), uint8(0))
	f.Add([]byte{0xff, 0x00, 0xa5, 0x3c}, uint8(2), uint8(0))
	f.Add([]byte{0x41, 0x41, 0x41, 0x41, 0x41, 0x41}, uint8(0), uint8(0))
	f.Add([]byte{0x10, 0x92, 0x07, 0xe0, 0x55}, uint8(5), uint8(0))
	f.Add([]byte{0x01, 0x21, 0x02, 0x0c, 0x01, 0x04}, uint8(0), uint8(1))
	f.Add([]byte{0x61, 0x02, 0x04, 0x01, 0x0a, 0x11, 0x06}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, window, cond uint8) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		regular := cond%2 == 1
		ops := make([]ioa.Op, 0, len(data))
		var values []string
		lastWrite := -1 // index of the previous write, under regularity
		for i, b := range data {
			o := ioa.Op{ID: i, Client: ioa.NodeID(10 + i)}
			invoke := 2 * i
			respond := invoke + 1 + 2*int(b>>5&0x3) // overlap up to 3 successors
			if b&0x10 != 0 {
				respond = -1
			}
			o.InvokeStep, o.RespondStep = invoke, respond
			if b&0x01 != 0 && (!regular || lastWrite < 0 || ops[lastWrite].RespondStep >= 0 && ops[lastWrite].RespondStep < invoke) {
				o.Kind = ioa.OpWrite
				o.Input = []byte(fmt.Sprintf("f%d", i))
				values = append(values, string(o.Input))
				if regular {
					o.Client, lastWrite = 1, i
				}
			} else {
				o.Kind = ioa.OpRead
			}
			ops = append(ops, o)
		}
		for i, b := range data { // outputs once all writes are known
			if ops[i].Kind != ioa.OpRead || ops[i].Pending() {
				continue
			}
			switch sel := int(b >> 1 & 0x7); {
			case sel == 7:
				ops[i].Output = []byte("never-written")
			case sel == 6 || len(values) == 0:
				ops[i].Output = nil
			default:
				ops[i].Output = []byte(values[sel%len(values)])
			}
		}
		h := &ioa.History{Ops: append([]ioa.Op(nil), ops...)}
		condName, windows := "atomic", []int{1 + int(window%8)}
		if regular {
			condName, windows = "regular", []int{1, 2, 3, 4}
		}
		want := consistency.Check(condName, h) == nil
		for _, w := range windows {
			c := consistency.NewOnlineChecker(nil, consistency.WithWindowOps(w), consistency.WithCondition(condName))
			for i, o := range ops {
				c.Observe(o)
				if data[i]&0x08 != 0 {
					c.Retire()
				}
			}
			if got := c.Result() == nil; got != want {
				t.Fatalf("online %s (window %d) = %t, offline = %t, ops:\n%v", condName, w, got, want, ops)
			}
		}
	})
}
