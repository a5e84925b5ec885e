package store

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/workload"
)

// scenario is one batch run as the tests describe it: a store configuration,
// resolved the way session.Open resolves it, and the workload Run drives.
type scenario struct {
	Config
	Workload workload.MultiSpec
}

func (s scenario) run() (*Result, error) {
	c, err := s.Config.Resolve()
	if err != nil {
		return nil, err
	}
	return Run(c, s.Workload)
}

// acceptanceOptions is the ISSUE's acceptance scenario — 8 CAS shards, a
// 64-key Zipf keyspace — with a worker-count knob.
func acceptanceOptions(workers int) scenario {
	return scenario{
		Config: Config{
			Shards:     8,
			Algorithms: []string{AlgCAS},
			Servers:    5,
			F:          1,
			Workers:    workers,
		},
		Workload: workload.MultiSpec{
			Seed:         1,
			Keys:         64,
			Ops:          128,
			ReadFraction: 0.25,
			Skew:         workload.SkewZipf,
			TargetNu:     2,
			ValueBytes:   64,
		},
	}
}

// TestDeterministicAcrossWorkerCounts verifies the acceptance criterion:
// the same seed reproduces byte-identical aggregate results across runs
// despite parallel shard execution.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := acceptanceOptions(1).run()
	if err != nil {
		t.Fatal(err)
	}
	parallel1, err := acceptanceOptions(8).run()
	if err != nil {
		t.Fatal(err)
	}
	parallel2, err := acceptanceOptions(8).run()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serial.Fingerprint(), parallel1.Fingerprint(); a != b {
		t.Errorf("fingerprint differs between 1 and 8 workers:\n%s\n%s", a, b)
	}
	if a, b := parallel1.Fingerprint(), parallel2.Fingerprint(); a != b {
		t.Errorf("fingerprint differs between identical parallel runs:\n%s\n%s", a, b)
	}
	if a, b := serial.Table(), parallel1.Table(); a != b {
		t.Errorf("table differs between 1 and 8 workers:\n%s\n%s", a, b)
	}
}

func TestAggregation(t *testing.T) {
	res, err := acceptanceOptions(0).run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerShard) != 8 {
		t.Fatalf("got %d shard results, want 8", len(res.PerShard))
	}
	var writes, reads, bits, peak int
	for i, s := range res.PerShard {
		if s.Shard != i {
			t.Errorf("shard result %d has index %d", i, s.Shard)
		}
		if s.Algorithm != AlgCAS || s.Condition != "atomic" {
			t.Errorf("shard %d: algorithm %q condition %q", i, s.Algorithm, s.Condition)
		}
		writes += s.Writes
		reads += s.Reads
		bits += s.Storage.MaxTotalBits
		peak += s.PeakActiveWrites
	}
	if writes+reads != 128 {
		t.Errorf("ops conserved: %d writes + %d reads != 128", writes, reads)
	}
	if res.TotalWrites != writes || res.TotalReads != reads || res.TotalOps != 128 {
		t.Errorf("aggregate op counts %d/%d/%d disagree with shards %d/%d",
			res.TotalWrites, res.TotalReads, res.TotalOps, writes, reads)
	}
	if res.AggregateMaxTotalBits != bits {
		t.Errorf("aggregate bits %d != sum of shards %d", res.AggregateMaxTotalBits, bits)
	}
	if res.PeakActiveWrites != peak {
		t.Errorf("aggregate peak %d != sum of shard peaks %d", res.PeakActiveWrites, peak)
	}
	if res.Log2V != 8*64 {
		t.Errorf("Log2V = %v, want 512", res.Log2V)
	}
	want := float64(bits) / res.Log2V
	if res.NormalizedTotal != want {
		t.Errorf("normalized total %v, want %v", res.NormalizedTotal, want)
	}
}

// TestSingleShardMatchesDirectWorkload pins the store to the existing
// single-register driver: a one-shard store must meter exactly what a
// direct workload.Run of the derived spec meters.
func TestSingleShardMatchesDirectWorkload(t *testing.T) {
	opts := acceptanceOptions(1)
	opts.Shards = 1
	res, err := opts.run()
	if err != nil {
		t.Fatal(err)
	}
	loads, err := opts.Workload.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	cl, _, err := DeployShard(AlgCAS, opts.Servers, opts.F, opts.Workload.TargetNu, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := workload.Run(cl, loads[0].Spec(opts.Workload))
	if err != nil {
		t.Fatal(err)
	}
	s := res.PerShard[0]
	if s.Storage.MaxTotalBits != direct.Storage.MaxTotalBits {
		t.Errorf("store metered %d bits, direct run %d", s.Storage.MaxTotalBits, direct.Storage.MaxTotalBits)
	}
	if s.PeakActiveWrites != direct.PeakActiveWrites {
		t.Errorf("store peak %d, direct %d", s.PeakActiveWrites, direct.PeakActiveWrites)
	}
}

// TestMixedAlgorithms runs a replication shard next to erasure-coded
// shards and checks each is verified against its own condition.
func TestMixedAlgorithms(t *testing.T) {
	opts := scenario{
		Config: Config{
			Shards:     4,
			Algorithms: []string{AlgABDMW, AlgCASGC},
			Servers:    5,
			F:          1,
		},
		Workload: workload.MultiSpec{
			Seed:         7,
			Keys:         16,
			Ops:          48,
			ReadFraction: 0.3,
			TargetNu:     2,
			ValueBytes:   32,
		},
	}
	res, err := opts.run()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.PerShard {
		wantAlg := []string{AlgABDMW, AlgCASGC}[i%2]
		if s.Algorithm != wantAlg {
			t.Errorf("shard %d runs %q, want %q", i, s.Algorithm, wantAlg)
		}
		if s.Condition != "atomic" {
			t.Errorf("shard %d condition %q", i, s.Condition)
		}
	}
	// Every shard that wrote must meter storage at or above the Theorem
	// B.1 (Singleton) bound N/(N-f) = 5/4 for its configuration.
	for _, s := range res.PerShard {
		if s.Writes == 0 {
			continue
		}
		if s.NormalizedTotal < 1.25 {
			t.Errorf("shard %d (%s) normalized storage %.4f below the Singleton bound 1.25",
				s.Shard, s.Algorithm, s.NormalizedTotal)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	good := acceptanceOptions(1)
	bad := []func(*scenario){
		func(o *scenario) { o.Shards = -1 },
		func(o *scenario) { o.Servers = -1 },
		func(o *scenario) { o.F = -1 },
		func(o *scenario) { o.Workers = -1 },
		func(o *scenario) { o.Algorithms = []string{"paxos"} },
		func(o *scenario) { o.Workload.Crashes = o.F + 1 },
		func(o *scenario) { o.Workload.Keys = 0 },
		func(o *scenario) { o.Workload.TargetNu = 0 },
	}
	for i, mutate := range bad {
		o := good
		mutate(&o)
		if _, err := o.run(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestUnknownAlgorithmError(t *testing.T) {
	if _, _, err := DeployShard("raft", 5, 1, 1, 0, 0); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("got %v, want unknown-algorithm error", err)
	}
	for _, alg := range Algorithms() {
		cl, cond, err := DeployShard(alg, 5, 1, 2, 0, 0)
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		if cond != "atomic" && cond != "regular" {
			t.Errorf("%s: condition %q", alg, cond)
		}
		if err := cl.Validate(); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func TestCrashesWithinBudget(t *testing.T) {
	opts := acceptanceOptions(0)
	opts.Workload.Crashes = 1 // equals f, allowed per shard
	res, err := opts.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps != 128 {
		t.Errorf("ops = %d, want 128", res.TotalOps)
	}
}

// faultedOptions is the fault acceptance scenario: six shards cycling over a
// quorum-preserving crash, a lossy network, a healing partition and a
// fault-free control, with a worker-count knob.
func faultedOptions(workers int) scenario {
	return scenario{
		Config: Config{
			Shards:     6,
			Algorithms: []string{AlgCAS, AlgABDMW},
			Servers:    5,
			F:          1,
			Workers:    workers,
		},
		Workload: workload.MultiSpec{
			Seed:         3,
			Keys:         24,
			Ops:          60,
			ReadFraction: 0.3,
			TargetNu:     2,
			ValueBytes:   64,
			Faults:       []string{"crash-f@10", "lossy=0.05", "partition@40:2500", ""},
		},
	}
}

// TestFaultedDeterministicAcrossWorkerCounts verifies the ISSUE's last
// acceptance criterion: the same seed plus the same per-shard fault plans
// produce an identical fingerprint at 1, 4 and 16 workers.
func TestFaultedDeterministicAcrossWorkerCounts(t *testing.T) {
	var prints []string
	var tables []string
	for _, workers := range []int{1, 4, 16} {
		res, err := faultedOptions(workers).run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		prints = append(prints, res.Fingerprint())
		tables = append(tables, res.Table())
	}
	if prints[0] != prints[1] || prints[1] != prints[2] {
		t.Errorf("fingerprints differ across 1/4/16 workers under faults:\n%s\n%s\n%s",
			prints[0], prints[1], prints[2])
	}
	if tables[0] != tables[1] || tables[1] != tables[2] {
		t.Errorf("tables differ across worker counts:\n%s\n%s", tables[0], tables[2])
	}
}

// TestMixedFaultScenarios checks the per-shard fault plumbing: scenario
// specs cycle across shards, fault stats land on the right shards, and the
// fault-free control shards record no events.
func TestMixedFaultScenarios(t *testing.T) {
	res, err := faultedOptions(0).run()
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"crash-f@10", "lossy=0.05", "partition@40:2500", ""}
	sawCrash, sawDrop := false, false
	for i, s := range res.PerShard {
		want := specs[i%len(specs)]
		if s.FaultSpec != want {
			t.Errorf("shard %d fault spec %q, want %q", i, s.FaultSpec, want)
		}
		zero := ioa.FaultStats{}
		switch want {
		case "crash-f@10":
			if s.Writes+s.Reads > 0 && s.Faults.Crashes != 1 {
				t.Errorf("shard %d: crashes = %d, want 1", i, s.Faults.Crashes)
			}
			sawCrash = sawCrash || s.Faults.Crashes > 0
		case "":
			if s.Faults != zero {
				t.Errorf("fault-free shard %d has fault stats %+v", i, s.Faults)
			}
			if s.Quiescent {
				t.Errorf("fault-free shard %d reported quiescent", i)
			}
		}
		sawDrop = sawDrop || s.Faults.Drops > 0
	}
	if !sawCrash {
		t.Error("no shard recorded a scheduled crash")
	}
	if !sawDrop {
		t.Error("no shard recorded a dropped message")
	}
	if got := res.Faults.Crashes; got < 2 {
		t.Errorf("aggregate crashes = %d, want >= 2 (two crash-f shards)", got)
	}
}

// TestFingerprintSeesFaults checks that the fingerprint distinguishes a
// faulted run from a fault-free run of the same workload.
func TestFingerprintSeesFaults(t *testing.T) {
	faulted, err := faultedOptions(1).run()
	if err != nil {
		t.Fatal(err)
	}
	clean := faultedOptions(1)
	clean.Workload.Faults = nil
	cleanRes, err := clean.run()
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Fingerprint() == cleanRes.Fingerprint() {
		t.Error("fingerprint identical with and without fault plans")
	}
}

// failingOptions builds a 16-shard run where shards 5 and 11 deterministically
// fail inside runShard: their fault spec parses (the grammar and windows are
// valid) but cannot build for a 5-server deployment (isolate 99 > n), forcing
// a mid-run shard failure while every other shard keeps working.
func failingOptions(workers int) scenario {
	faults := make([]string, 16)
	for i := range faults {
		faults[i] = "none"
	}
	faults[5] = "partition@1:2:99"
	faults[11] = "partition@1:2:99"
	return scenario{
		Config: Config{
			Shards:     16,
			Algorithms: []string{AlgCAS},
			Servers:    5,
			F:          1,
			Workers:    workers,
		},
		Workload: workload.MultiSpec{
			Seed:       1,
			Keys:       64,
			Ops:        96,
			TargetNu:   2,
			ValueBytes: 64,
			Faults:     faults,
		},
	}
}

// TestDeterministicErrorAcrossWorkerCounts pins Run's error surfacing: with
// shards 5 and 11 failing, the reported error must be shard 5's,
// byte-identical at 1, 4 and 16 workers, and the partial result must mark
// skipped shards explicitly — never a shard below the failing index.
func TestDeterministicErrorAcrossWorkerCounts(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4, 16} {
		res, err := failingOptions(workers).run()
		if err == nil {
			t.Fatalf("workers=%d: Run succeeded, want failure", workers)
		}
		if !strings.Contains(err.Error(), "store: shard 5 (cas)") {
			t.Errorf("workers=%d: error %q does not report lowest failing shard 5", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: error differs:\n%q\n%q", workers, err.Error(), want)
		}
		if res == nil {
			t.Fatalf("workers=%d: no partial result alongside the error", workers)
		}
		for _, s := range res.PerShard {
			if s.Skipped && s.Shard <= 5 {
				t.Errorf("workers=%d: shard %d below the failing index was skipped", workers, s.Shard)
			}
			switch {
			case s.Shard == 5 && !s.Failed:
				t.Errorf("workers=%d: failing shard 5 not marked Failed", workers)
			case s.Shard == 11 && !s.Failed && !s.Skipped:
				t.Errorf("workers=%d: shard 11 neither Failed nor Skipped", workers)
			case s.Shard != 5 && s.Shard != 11 && s.Failed:
				t.Errorf("workers=%d: healthy shard %d marked Failed", workers, s.Shard)
			case !s.Skipped && !s.Failed && s.Writes+s.Reads == 0 && s.Storage.MaxTotalBits == 0:
				t.Errorf("workers=%d: shard %d has a zero result but no Skipped/Failed mark", workers, s.Shard)
			}
		}
	}
}

// TestLiveBackendStoreRun runs the acceptance workload on the live backend:
// the same MultiSpec, the same per-shard consistency checks, real
// goroutine-per-node execution. Throughput fields must be populated;
// fingerprints are sim-only and not compared.
func TestLiveBackendStoreRun(t *testing.T) {
	o := acceptanceOptions(4)
	o.Backend = BackendLive
	o.Workload.Ops = 64
	res, err := o.run()
	if err != nil {
		t.Fatalf("live backend run: %v", err)
	}
	if res.TotalOps != 64 {
		t.Errorf("TotalOps = %d, want 64", res.TotalOps)
	}
	if res.QuiescentShards != 0 {
		t.Errorf("fault-free live run reports %d quiescent shards", res.QuiescentShards)
	}
	if res.OpsPerSec <= 0 || res.AggregateMaxTotalBits <= 0 {
		t.Errorf("live aggregates not populated: ops/sec=%v bits=%d", res.OpsPerSec, res.AggregateMaxTotalBits)
	}
}

// TestBackendValidation pins the eager backend-name check.
func TestBackendValidation(t *testing.T) {
	o := acceptanceOptions(1)
	o.Backend = "quantum"
	if _, err := o.run(); err == nil || !strings.Contains(err.Error(), `unknown backend "quantum"`) {
		t.Errorf("unknown backend: err = %v", err)
	}
	for _, name := range append(Backends(), "") {
		if _, err := BackendByName(name); err != nil {
			t.Errorf("BackendByName(%q): %v", name, err)
		}
	}
	// The random crash budget must still fail eagerly on the live backend —
	// from workload validation, before any shard runs — with the typed error.
	crashes := acceptanceOptions(1)
	crashes.Backend = BackendLive
	crashes.Workload.Crashes = 1
	if _, err := crashes.run(); !errors.Is(err, faults.ErrUnsupported) {
		t.Errorf("live backend with crash budget: err = %v, want faults.ErrUnsupported", err)
	}
	// Step-indexed fault scenarios, by contrast, now pass validation: the
	// wall-clock scheduler runs them.
	stepFaults := acceptanceOptions(1)
	stepFaults.Backend = BackendLive
	stepFaults.Workload.Faults = []string{"crash-f@30"}
	if err := validateWorkload(stepFaults.Config, stepFaults.Workload); err != nil {
		t.Errorf("live backend with step-indexed faults: validateWorkload = %v, want acceptance", err)
	}
}

// TestCheckedHighConcurrency runs checked shards with 64 writers kept
// concurrently active — a width no linearization search finishes at — and
// then shows the check has teeth at that width: one stale read injected into
// the same history is caught and blamed.
func TestCheckedHighConcurrency(t *testing.T) {
	const nu = 64
	spec := workload.MultiSpec{
		Seed: 7, Keys: 8, Ops: 4000, ReadFraction: 0.5, TargetNu: nu, ValueBytes: 64,
	}
	res, err := scenario{
		Config:   Config{Shards: 2, Algorithms: []string{AlgABDMW, AlgCASGC}, Servers: 5, F: 1},
		Workload: spec,
	}.run()
	if err != nil {
		t.Fatalf("checked run at nu=%d: %v", nu, err)
	}
	for _, s := range res.PerShard {
		if s.PeakActiveWrites < nu/2 {
			t.Errorf("shard %d (%s) peaked at %d active writes, want a run near nu=%d", s.Shard, s.Algorithm, s.PeakActiveWrites, nu)
		}
	}

	for _, alg := range []string{AlgABDMW, AlgCASGC} {
		cl, _, err := DeployShard(alg, 5, 1, nu, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		run, err := workload.Run(cl, workload.Spec{Seed: 7, Writes: 2000, Reads: 2000, TargetNu: nu, ValueBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		h := run.History
		if err := consistency.CheckAtomic(h, nil); err != nil {
			t.Fatalf("%s: clean history rejected: %v", alg, err)
		}
		// The last read to be invoked returns the first write's value,
		// thousands of completed writes later.
		first, stale := -1, -1
		for i, op := range h.Ops {
			if op.Pending() {
				continue
			}
			if op.Kind == ioa.OpWrite && (first < 0 || op.InvokeStep < h.Ops[first].InvokeStep) {
				first = i
			}
			if op.Kind == ioa.OpRead && (stale < 0 || op.InvokeStep > h.Ops[stale].InvokeStep) {
				stale = i
			}
		}
		h.Ops[stale].Output = h.Ops[first].Input
		var v *consistency.Violation
		if err := consistency.CheckAtomic(h, nil); !errors.As(err, &v) {
			t.Fatalf("%s: injected stale read not caught: %v", alg, err)
		} else if v.Op.ID != h.Ops[stale].ID {
			t.Errorf("%s: blamed op %d, want the stale read op %d: %v", alg, v.Op.ID, h.Ops[stale].ID, err)
		}
	}
}
