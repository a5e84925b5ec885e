package runtime_test

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/store"
	"repro/internal/workload"
)

// lossyDelayGrid filters the standard scenario library down to its
// drop/delay points. The wall-clock scheduler runs partitions and crashes on
// the live and net backends too, but those are timing-dependent by
// construction and exercised by the chaos tests; this differential grid keeps
// only the rule classes whose sim and wall-clock runs face the same fault
// odds, plus a composed point stressing rule overlay on every substrate.
func lossyDelayGrid(t *testing.T) []string {
	t.Helper()
	grid := []string{"none"}
	for _, sc := range faults.Library() {
		spec := sc.String()
		parsed, err := faults.Parse(spec)
		if err != nil {
			t.Fatalf("library spec %q does not parse: %v", spec, err)
		}
		plan, err := parsed.Build(5, 1, 1)
		if err != nil || plan.Validate() != nil {
			continue
		}
		if len(plan.Outages) > 0 || len(plan.Crashes) > 0 {
			continue
		}
		grid = append(grid, spec)
	}
	if len(grid) < 3 {
		t.Fatalf("library lost its lossy/delay points: %v", grid)
	}
	return append(grid, "lossy=0.02+delay=1:24")
}

// TestCrossBackendDifferential is the backend contract test: the same
// workload.MultiSpec runs on the simulator and on the node runtime over both
// links, and each backend's histories must pass the algorithm's consistency
// condition (store.Run errors otherwise). Every deployable algorithm runs
// fault-free and under pure delay; abd-mwmr and cas also run every lossy
// grid point, where each quiescent shard waits out one OpTimeout. The
// simulator side additionally re-asserts its determinism oracle role — the
// same seed fingerprints byte-identically at two worker counts — while the
// live and net sides are checked for safety, the only guarantee they make.
func TestCrossBackendDifferential(t *testing.T) {
	lossy := lossyDelayGrid(t)
	for _, alg := range store.Algorithms() {
		specs := []string{"none", "delay=1:24"}
		if alg == store.AlgABDMW || alg == store.AlgCAS {
			specs = lossy
		}
		for _, spec := range specs {
			alg, spec := alg, spec
			t.Run(fmt.Sprintf("%s/%s", alg, spec), func(t *testing.T) {
				t.Parallel()
				run := func(backend string, workers int) (*store.Result, error) {
					cfg, err := store.Config{
						Shards:     4,
						Algorithms: []string{alg},
						Servers:    5,
						F:          1,
						Workers:    workers,
						Backend:    backend,
						Faults:     []string{spec},
					}.Resolve()
					if err != nil {
						return nil, err
					}
					return store.Run(cfg, workload.MultiSpec{
						Seed:         11,
						Keys:         16,
						Ops:          48,
						ReadFraction: 0.4,
						TargetNu:     2,
						ValueBytes:   64,
					})
				}
				simA, err := run(store.BackendSim, 1)
				if err != nil {
					t.Fatalf("sim backend: %v", err)
				}
				simB, err := run(store.BackendSim, 4)
				if err != nil {
					t.Fatalf("sim backend (4 workers): %v", err)
				}
				if a, b := simA.Fingerprint(), simB.Fingerprint(); a != b {
					t.Errorf("simulator oracle broke: fingerprints differ across worker counts\n%s\n%s", a, b)
				}
				for _, backend := range []string{store.BackendLive, store.BackendNet} {
					res, err := run(backend, 4)
					if err != nil {
						t.Fatalf("%s backend: %v", backend, err)
					}
					// Under pure delay (no loss) a wall-clock run must not
					// lose liveness; under loss, quiescent shards are
					// legitimate verdicts on any backend.
					if (spec == "none" || spec == "delay=1:24") && res.QuiescentShards != 0 {
						t.Errorf("%s backend lost liveness under %q: %d quiescent shards", backend, spec, res.QuiescentShards)
					}
				}
			})
		}
	}
}
