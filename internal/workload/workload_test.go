package workload

import (
	"errors"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ioa"
)

func TestSpecValidate(t *testing.T) {
	cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Writes: -1, TargetNu: 1, ValueBytes: 16},
		{Writes: 1, TargetNu: 0, ValueBytes: 16},
		{Writes: 1, TargetNu: 1, ValueBytes: 4},
		{Writes: 1, TargetNu: 1, ValueBytes: 16, Crashes: 2},
	}
	for i, s := range bad {
		if err := s.Validate(cl); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
	good := Spec{Writes: 1, Reads: 1, TargetNu: 1, ValueBytes: 16, Crashes: 1}
	if err := good.Validate(cl); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestRunABDAtomic(t *testing.T) {
	cl, err := abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 2, Readers: 2, MultiWriter: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cl, Spec{Seed: 1, Writes: 12, Reads: 8, TargetNu: 2, ValueBytes: 256, Crashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency("atomic"); err != nil {
		t.Fatal(err)
	}
	if res.PeakActiveWrites < 1 || res.PeakActiveWrites > 2 {
		t.Errorf("peak active writes = %d, want in [1,2]", res.PeakActiveWrites)
	}
	if len(res.History.PendingOps()) != 0 {
		t.Error("all operations should have completed")
	}
	// ABD normalized storage ~ N (one copy per server), independent of nu;
	// the slack covers per-server tag metadata (96 bits per 2048-bit value).
	if res.NormalizedTotal < 4.5 || res.NormalizedTotal > 5.5 {
		t.Errorf("ABD normalized total = %f, want ~5 (N copies)", res.NormalizedTotal)
	}
}

// TestCASStorageGrowsWithNu reproduces the paper's Section 2.3 observation
// end to end: CASGC's storage grows with the sustained write concurrency.
func TestCASStorageGrowsWithNu(t *testing.T) {
	measure := func(nu int) float64 {
		cl, err := cas.Deploy(cas.Options{Servers: 9, F: 2, GCDepth: 0, Writers: nu, Readers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cl, Spec{Seed: 7, Writes: 6 * nu, Reads: 2, TargetNu: nu, ValueBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckConsistency("atomic"); err != nil {
			t.Fatal(err)
		}
		return res.NormalizedTotal
	}
	s1 := measure(1)
	s3 := measure(3)
	if s3 <= s1 {
		t.Errorf("storage should grow with nu: nu=1 -> %.2f, nu=3 -> %.2f", s1, s3)
	}
	// Lower bound sanity: measured storage must respect Theorem 6.5.
	p := core.Params{N: 9, F: 2}
	if s1 < core.NormalizedTheorem65(p, 1)*0.9 {
		t.Errorf("nu=1 storage %.2f below Theorem 6.5 bound %.2f", s1, core.NormalizedTheorem65(p, 1))
	}
}

func TestRunRejectsBrokenCluster(t *testing.T) {
	if _, err := Run(&cluster.Cluster{}, Spec{Writes: 1, TargetNu: 1, ValueBytes: 16}); err == nil {
		t.Error("invalid cluster should be rejected")
	}
}

func TestCheckConsistencyUnknown(t *testing.T) {
	r := &Result{}
	if err := r.CheckConsistency("bogus"); err == nil {
		t.Error("unknown condition should fail")
	}
}

// TestRunStepLimit verifies that exhausting the delivery budget surfaces
// the scheduler's ErrStepLimit sentinel through Run's error wrapping.
func TestRunStepLimit(t *testing.T) {
	cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(cl, Spec{Seed: 1, Writes: 2, TargetNu: 1, ValueBytes: 16, MaxSteps: 1})
	if !errors.Is(err, ioa.ErrStepLimit) {
		t.Errorf("got %v, want ErrStepLimit", err)
	}
}

// TestRunQuiescent verifies that a run which loses liveness — more crashed
// servers than any quorum can tolerate — surfaces ErrQuiescent rather than
// hanging or reporting success with pending operations.
func TestRunQuiescent(t *testing.T) {
	cl, err := abd.Deploy(abd.Options{Servers: 3, F: 1, Writers: 1, Readers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Crash beyond the tolerated f directly on the system: majority quorums
	// become unreachable, so the single write can never complete.
	cl.Sys.Crash(cl.Servers[0])
	cl.Sys.Crash(cl.Servers[1])
	_, err = Run(cl, Spec{Seed: 1, Writes: 1, TargetNu: 1, ValueBytes: 16})
	if !errors.Is(err, ioa.ErrQuiescent) {
		t.Errorf("got %v, want ErrQuiescent", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (*Result, error) {
		cl, err := abd.Deploy(abd.Options{Servers: 5, F: 2, Writers: 2, Readers: 1, MultiWriter: true})
		if err != nil {
			return nil, err
		}
		return Run(cl, Spec{Seed: 99, Writes: 10, Reads: 5, TargetNu: 2, ValueBytes: 16})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Storage.MaxTotalBits != b.Storage.MaxTotalBits || a.PeakActiveWrites != b.PeakActiveWrites {
		t.Error("same seed must reproduce the same run")
	}
	if len(a.History.Ops) != len(b.History.Ops) {
		t.Error("histories diverged under identical seeds")
	}
}

// TestPercentile pins the nearest-rank percentile helper.
func TestPercentile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2} // unsorted on purpose
	cases := []struct {
		p    float64
		want time.Duration
	}{{0.5, 2}, {0.99, 4}, {1, 4}, {0.01, 1}}
	for _, tc := range cases {
		if got := Percentile(ds, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}
