package store

import (
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/workload"
)

// TestEveryAlgorithmOnWallClockBackends runs every deployable algorithm on
// the live and net backends, fault-free, under random delays, under f
// crashes and under f crashes that recover: two shards, 48 operations, each
// shard judged by its own algorithm's condition (atomic or regular) — in the
// fault-free column by an online checker for that condition, whose
// two-operation window makes the drivers cut often enough that even a shard
// the keyspace gives a handful of operations retires some. The
// coded registers draw their elements from the shard pool and, on net,
// decode them into pooled buffers; this is the grid that runs them there.
// The recovering column recovers at step 10, where the plain crash column
// already counts on its crash firing: a later recovery can fall after the
// end of a fast live run.
func TestEveryAlgorithmOnWallClockBackends(t *testing.T) {
	rc := runtime.Config{StepDur: 10 * time.Microsecond, OpTimeout: 2 * time.Second}
	for _, alg := range Algorithms() {
		for _, backend := range []string{BackendLive, BackendNet} {
			for _, faults := range []string{"none", "delay=1:8", "crash-f@10", "crash-f@5:10"} {
				alg, backend, faults := alg, backend, faults
				t.Run(alg+"/"+backend+"/"+faults, func(t *testing.T) {
					t.Parallel()
					res, err := scenario{
						Config: Config{
							Algorithms: []string{alg}, Shards: 2, Backend: backend, Faults: []string{faults}, Net: rc,
							OnlineCheck: faults == "none", OnlineWindow: 2,
						},
						Workload: workload.MultiSpec{
							Seed: 5, Keys: 8, Ops: 48, ReadFraction: 0.5, TargetNu: 1, ValueBytes: 256,
						},
					}.run()
					if err != nil {
						t.Fatal(err)
					}
					want := "atomic"
					switch alg {
					case AlgTwoVersion, AlgTwoVersionGossip, AlgSolo:
						want = "regular"
					}
					for _, s := range res.PerShard {
						if s.Condition != want {
							t.Errorf("shard %d checked %q, want %q", s.Shard, s.Condition, want)
						}
						if s.Quiescent {
							t.Errorf("shard %d lost liveness: %d ops pending", s.Shard, s.PendingOps)
						}
						if ops := int64(s.Writes + s.Reads); faults == "none" && (s.OpsVerified == 0 || s.OpsVerified > ops) {
							t.Errorf("shard %d verified %d of %d ops online", s.Shard, s.OpsVerified, ops)
						}
					}
					// A shard may finish before its scheduled crash; the run as
					// a whole does not.
					if fired := res.Faults.Crashes + res.Faults.DelayedMessages; (faults == "none") != (fired == 0) {
						t.Errorf("run under %q recorded %+v", faults, res.Faults)
					}
					if faults == "crash-f@5:10" && res.Faults.Recoveries == 0 {
						t.Errorf("run under %q fired no recovery: %+v", faults, res.Faults)
					}
					if res.TotalOps != 48 {
						t.Errorf("ran %d ops, want 48", res.TotalOps)
					}
				})
			}
		}
	}
}
