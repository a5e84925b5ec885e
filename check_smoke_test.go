package shmem

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestCheckSmokeOnline is the check-smoke CI step (make check-smoke): one
// live-backend cluster per condition — atomic abd-mwmr, regular twoversion —
// streams a >=10^5-op history through the online windowed checker built for
// that condition while it runs, under -race in CI. Each row asserts the
// three properties the streaming pipeline exists for: the verdict is clean,
// the verification frontier keeps up with the run (all but a bounded residue
// retired online), and peak checker memory is bounded by the window, not the
// history. The runtime derives its sync period from the checker it feeds, as
// in the store engine's online-check wiring: the drivers quiesce every
// window's worth of operations, so every window is guaranteed a clean cut to
// retire at even with saturated pipelined clients that never leave a
// natural global idle moment.
func TestCheckSmokeOnline(t *testing.T) {
	ops := 100_000
	if testing.Short() {
		ops = 10_000
	}
	const window = 256
	for _, tc := range []struct{ alg, cond string }{
		{"abd-mwmr", "atomic"},
		{"twoversion", "regular"},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			checker := consistency.NewOnlineChecker(nil, consistency.WithWindowOps(window), consistency.WithCondition(tc.cond))
			cl, cond, err := store.DeployAlgorithmSized(tc.alg, 5, 1, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if cond != tc.cond {
				t.Fatalf("condition = %q, want %s", cond, tc.cond)
			}
			res, err := runtime.RunConfig(runtime.BackendLive, cl, workload.Spec{
				Seed:       11,
				Writes:     ops / 2,
				Reads:      ops / 2,
				TargetNu:   1,
				ValueBytes: 16,
			}, runtime.Config{Pipeline: 8}, checker, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.History.PendingOps()) != 0 {
				t.Fatalf("%d ops pending on a fault-free run", len(res.History.PendingOps()))
			}
			if err := checker.Result(); err != nil {
				t.Fatalf("online verdict: %v", err)
			}
			if got := checker.OpsObserved(); got < int64(ops) {
				t.Fatalf("observed %d ops, want >= %d", got, ops)
			}
			// The frontier must keep up: all but a bounded residue retired online.
			if v := checker.OpsVerified(); v < int64(ops-4*window) {
				t.Fatalf("only %d of %d ops retired online (residual lag %d)", v, ops, checker.WindowLag())
			}
			// Peak memory bounded by the window, not the history: between two
			// sync cuts at most a window's worth of ops issue plus the
			// in-flight pipeline, so the largest window the checker ever held
			// stays a small multiple of the retirement window however long the
			// run is. (The runtime's TestSyncPeriodFromChecker pins the sync
			// period itself, with clients saturated enough that nothing else
			// would cut the history.)
			if mw := checker.MaxWindow(); mw > 4*window {
				t.Fatalf("peak checker window held %d ops, want <= %d (bounded by the window, not the history)", mw, 4*window)
			}
		})
	}
}
