package runtime_test

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/register"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// writeRead64K runs ops interactive operations on a casgc session, fresh
// 64 KiB writes alternating with reads, numbering the values from first.
func writeRead64K(tb testing.TB, in *runtime.Interactive, cl *cluster.Cluster, first, ops int) {
	tb.Helper()
	ctx := context.Background()
	for i := first; i < first+ops; i++ {
		var err error
		if i%2 == 0 {
			_, _, err = in.RunOp(ctx, cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: register.MakeValue(64<<10, uint64(i))})
		} else {
			_, _, err = in.RunOp(ctx, cl.Readers[0], ioa.Invocation{Kind: ioa.OpRead})
		}
		if err != nil {
			tb.Fatalf("op %d: %v", i, err)
		}
	}
}

func heapAlloc() int64 {
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestInteractiveRetainsNothing pins the runtime's memory contract: an
// interactive session holds O(ν) values — what the servers store and what is
// in flight — not O(operations). 2,000 operations on 64 KiB values move
// 130 MB through the session; after them the live heap has grown by less
// than 16 MB. (The per-client operation log this runtime used to keep grew
// it by all 130.)
func TestInteractiveRetainsNothing(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, _ := deploy(t, store.AlgCASGC, 5, 1, 1, 1)
		in, err := runtime.OpenInteractive(backend, cl, nil, runtime.Config{}, nil)
		if err != nil {
			t.Fatalf("OpenInteractive: %v", err)
		}
		defer in.Close()
		writeRead64K(t, in, cl, 0, 64) // connections dialled, mailboxes and buffers at size
		before := heapAlloc()
		writeRead64K(t, in, cl, 64, 2000)
		if grew := heapAlloc() - before; grew >= 16<<20 {
			t.Fatalf("live heap grew %.1f MB over 2000 interactive 64 KiB ops, want < 16 MB", float64(grew)/(1<<20))
		}
	})
}

// BenchmarkInteractive64K is the live-casgc-64k path below the session: one
// interactive 64 KiB write or read per iteration on the channel link.
func BenchmarkInteractive64K(b *testing.B) {
	cl, _, err := store.DeployAlgorithmSized(store.AlgCASGC, 5, 1, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	in, err := runtime.OpenInteractive(runtime.BackendLive, cl, nil, runtime.Config{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	writeRead64K(b, in, cl, 0, 2)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	writeRead64K(b, in, cl, 2, b.N)
}

// pendingSet names a history's pending operations by client and kind.
func pendingSet(h *ioa.History) []string {
	var out []string
	for _, op := range h.PendingOps() {
		out = append(out, fmt.Sprintf("%d/%s", op.Client, op.Kind))
	}
	sort.Strings(out)
	return out
}

// TestBatchHistoryParity: a batch run has one history path — the feed —
// whether the caller brings a sink or not. Run the same spec both ways:
// the run's own Result.History and the caller's sink must hold the same
// number of operations, the same pending set and the same atomicity verdict,
// and with a sink Result.History must be exactly the sink's pending tail.
func TestBatchHistoryParity(t *testing.T) {
	plans := []struct {
		name    string
		plan    *faults.Plan
		cfg     runtime.Config
		pending int // operations that must end pending
	}{
		{name: "fault-free"},
		{
			name: "crash+recover",
			plan: &faults.Plan{Crashes: []faults.Crash{{Node: 1, Step: 0, RecoverStep: 2}}},
			cfg:  runtime.Config{StepDur: time.Millisecond},
		},
		{
			// Every message is lost: each driven client's first operation
			// times out pending and the client is retired.
			name:    "total loss",
			plan:    &faults.Plan{Seed: 3, Rules: []faults.Rule{{DropProb: 1}}},
			cfg:     runtime.Config{OpTimeout: 50 * time.Millisecond},
			pending: 4,
		},
	}
	overLinks(t, func(t *testing.T, backend string) {
		for _, p := range plans {
			t.Run(p.name, func(t *testing.T) {
				spec := workload.Spec{Writes: 24, Reads: 24, TargetNu: 2, ValueBytes: 64, FaultPlan: p.plan}
				run := func(sink ioa.HistorySink) *workload.Result {
					cl, _ := deploy(t, store.AlgCAS, 5, 1, 2, 2)
					res, err := runtime.RunConfig(backend, cl, spec, p.cfg, sink, nil)
					if err != nil {
						t.Fatalf("RunConfig: %v", err)
					}
					return res
				}
				own := run(nil).History
				sunk := ioa.NewHistory()
				tail := run(sunk).History

				if len(own.Ops) != len(sunk.Ops) {
					t.Errorf("own history has %d ops, the caller's sink %d", len(own.Ops), len(sunk.Ops))
				}
				if p.pending == 0 && len(own.Ops) != spec.Writes+spec.Reads {
					t.Errorf("own history has %d ops, want %d", len(own.Ops), spec.Writes+spec.Reads)
				}
				po, ps, pt := pendingSet(own), pendingSet(sunk), pendingSet(tail)
				if fmt.Sprint(po) != fmt.Sprint(ps) || len(po) != p.pending {
					t.Errorf("pending sets differ or are not %d ops: own %v, sink %v", p.pending, po, ps)
				}
				if fmt.Sprint(pt) != fmt.Sprint(ps) || len(tail.Ops) != len(pt) {
					t.Errorf("with a sink Result.History must be the sink's pending tail: %d ops, pending %v, sink's %v", len(tail.Ops), pt, ps)
				}
				if eo, es := consistency.CheckAtomic(own, nil), consistency.CheckAtomic(sunk, nil); eo != nil || es != nil {
					t.Errorf("atomicity verdicts: own %v, sink %v", eo, es)
				}
			})
		}
	})
}
