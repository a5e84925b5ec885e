package consistency_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/consistency"
	"repro/internal/ioa"
)

// oneHash sends every value to the same hash, so value identity rests on the
// bytes.Equal confirmation alone.
func oneHash([]byte) uint64 { return 42 }

// TestExactUnderHashCollisions: with every value on one collision chain the
// offline and online checkers must still tell distinct values apart — same
// verdicts as the search oracle on histories that mix written, initial,
// rewritten and never-written values.
func TestExactUnderHashCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	violating, linearizable := 0, 0
	for i := 0; i < 20000; i++ {
		h := genAtomicHistory(rng, 8)
		var initial []byte
		if i%3 == 0 {
			initial = []byte("v0")
		}
		want := dfsAtomic(h, initial)
		if got := consistency.CheckAtomicHashed(oneHash, h, initial) == nil; got != want {
			t.Fatalf("case %d: colliding CheckAtomic says %t, search says %t, initial %q, history:\n%v", i, got, want, initial, h.Ops)
		}
		c := consistency.NewOnlineChecker(initial, consistency.WithWindowOps(1+rng.Intn(4)), consistency.WithValueHash(oneHash))
		for j, op := range sortedOps(h) {
			c.Observe(op)
			if j%3 == 2 {
				c.Retire() // compacts the table: IDs are renumbered mid-stream
			}
		}
		if got := c.Result() == nil; got != want {
			t.Fatalf("case %d: colliding online checker says %t, search says %t, initial %q, history:\n%v", i, got, want, initial, h.Ops)
		}
		if want {
			linearizable++
		} else {
			violating++
		}
	}
	if violating < 1000 || linearizable < 1000 {
		t.Fatalf("degenerate sample: %d linearizable, %d violating", linearizable, violating)
	}
	// The smallest case by hand: two distinct values, one hash.
	stale := &ioa.History{Ops: []ioa.Op{
		op(0, 1, ioa.OpWrite, "a", 0, 1), op(1, 1, ioa.OpWrite, "b", 2, 3), op(2, 2, ioa.OpRead, "a", 4, 5),
	}}
	if consistency.CheckAtomicHashed(oneHash, stale, nil) == nil {
		t.Fatal("a stale read of a passed because a and b share a hash")
	}
}

// largeValueStream is a sequential write/read stream of n operations whose
// values are size bytes each, the shape of live-casgc-64k.
func largeValueStream(n, size int) []ioa.Op {
	ops := make([]ioa.Op, n)
	var last []byte
	for i := range ops {
		ops[i] = ioa.Op{ID: i, Client: ioa.NodeID(1 + i%2), InvokeStep: 2 * i, RespondStep: 2*i + 1}
		if i%2 == 0 {
			last = make([]byte, size)
			copy(last, fmt.Sprintf("value-%d", i))
			copy(last[size-8:], fmt.Sprintf("%08d", i)) // values differ at both ends
			ops[i].Kind, ops[i].Input = ioa.OpWrite, last
		} else {
			// A read returns its own copy of the bytes, as the runtimes' do.
			ops[i].Kind, ops[i].Output = ioa.OpRead, append([]byte(nil), last...)
		}
	}
	return ops
}

// TestObserveLargeValuesAllocation pins the hash-once, copy-never contract:
// once the window's arrays have grown to size (the first retirement),
// observing and retiring a 256-op window of 64 KiB values allocates less than
// the bytes of one value. The string-keyed maps this replaced copied every
// value several times per retirement, some 50 MB here.
func TestObserveLargeValuesAllocation(t *testing.T) {
	const size, window = 64 << 10, consistency.DefaultWindowOps
	ops := largeValueStream(2*window, size)
	c := consistency.NewOnlineChecker(nil)
	observe := func(ops []ioa.Op) {
		for _, op := range ops {
			if err := c.Observe(op); err != nil {
				t.Fatal(err)
			}
		}
		c.Retire()
	}
	observe(ops[:window])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	observe(ops[window:])
	runtime.ReadMemStats(&after)
	if err := c.Result(); err != nil {
		t.Fatal(err)
	}
	if v := c.OpsVerified(); v < int64(len(ops))-1 {
		t.Fatalf("retired %d of %d ops", v, len(ops))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= size {
		t.Fatalf("observing and retiring %d ops allocated %d bytes, want < %d (one value)", window, got, size)
	}
}

// BenchmarkObserveLargeValues measures the online checker's cost per
// operation on a stream of 64 KiB values: Observe plus the retirement every
// window amortises, the consistency.observe row of the live-casgc-64k budget.
func BenchmarkObserveLargeValues(b *testing.B) {
	ops := largeValueStream(1024, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	var c *consistency.OnlineChecker
	for i := 0; i < b.N; i++ {
		if i%len(ops) == 0 {
			c = consistency.NewOnlineChecker(nil) // the stream starts over
		}
		if err := c.Observe(ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}
