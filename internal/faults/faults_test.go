package faults_test

import (
	"strings"
	"testing"

	"repro/internal/abd"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/workload"
)

// TestParseRoundTrip checks that every library scenario (and a composition)
// renders to a spec that parses back to the same scenario.
func TestParseRoundTrip(t *testing.T) {
	specs := make([]string, 0, 8)
	for _, sc := range faults.Library() {
		specs = append(specs, sc.String())
	}
	specs = append(specs,
		"crash-f@30:900",
		"crash-f@0:25", // crash at step zero with recovery
		"crash-majority@10:40",
		"partition@10:500:2", // explicit isolate count
		"lossy=0.02+delay=1:20",
		"crash-majority@5",
		"delay=0:0",
	)
	for _, spec := range specs {
		sc, err := faults.Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if got := sc.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
	}
}

func TestParseNone(t *testing.T) {
	for _, spec := range []string{"", "none", "  "} {
		sc, err := faults.Parse(spec)
		if err != nil || sc != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", spec, sc, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"lossy=1.5",
		"lossy=x",
		"partition@10",     // needs start and heal
		"partition@50:10",  // heal before start
		"delay=5",          // needs min and max
		"crash-f@-3",       // negative step
		"lossy=0.1+bogus",  // bad composition term
		"partition@10:+20", // empty term
	} {
		if _, err := faults.Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error at parse time", spec)
		}
	}
}

// TestParseRejectsImpossibleWindows pins the eager window validation per
// grammar production: specs whose parameters can never build (recovery
// before or at the crash step, heal before or at the partition start,
// inverted delay range) must fail at Parse time — a CLI user of
// `shmem run -faults` gets the error immediately, not from
// Scenario.Build in the middle of a run. Boundary-valid neighbours of each
// bad spec must keep parsing.
func TestParseRejectsImpossibleWindows(t *testing.T) {
	bad := []struct{ spec, wantErr string }{
		{"crash-f@50:10", "recovery step 10 not after crash step 50"},
		{"crash-f@50:50", "recovery step 50 not after crash step 50"},
		{"crash-majority@50:10", "recovery step 10 not after crash step 50"},
		{"partition@40:10", "heal step 10 not after start step 40"},
		{"partition@40:40", "heal step 40 not after start step 40"},
		{"partition@40:10:2", "heal step 10 not after start step 40"},
		{"delay=24:1", "delay range [24,1] invalid"},
		{"lossy=0.02+partition@40:10", "heal step 10 not after start step 40"},
		{"delay=1:24+crash-f@9:3", "recovery step 3 not after crash step 9"},
	}
	for _, tc := range bad {
		_, err := faults.Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want parse-time error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Parse(%q) error %q, want it to contain %q", tc.spec, err, tc.wantErr)
		}
	}
	good := []string{
		"crash-f@50:51",
		"crash-f@0:25",
		"crash-majority@50:51",
		"partition@40:41",
		"partition@40:41:1",
		"delay=24:24",
		"lossy=0.02+partition@40:400",
	}
	for _, spec := range good {
		sc, err := faults.Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v, want boundary-valid spec to parse", spec, err)
			continue
		}
		if _, err := sc.Build(5, 1, 1); err != nil {
			t.Errorf("Build(%q): %v", spec, err)
		}
	}
}

// TestBuildValidatesProgrammaticScenarios checks the same eager validation
// guards scenario values constructed in code, not just parsed specs.
func TestBuildValidatesProgrammaticScenarios(t *testing.T) {
	for _, sc := range []faults.Scenario{
		faults.CrashServers{Step: 50, RecoverStep: 10},
		faults.Partition{Start: 40, Heal: 10},
		faults.Delay{Min: 24, Max: 1},
		faults.Lossy{P: 1.5},
		faults.Compose{faults.Lossy{P: 0.1}, faults.Partition{Start: 9, Heal: 3}},
	} {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s.Validate() = nil, want error", sc)
		}
		if _, err := sc.Build(5, 1, 1); err == nil {
			t.Errorf("%s.Build() succeeded, want error", sc)
		}
	}
}

// TestMessageFateDeterministic checks drop/delay decisions are pure
// functions of (seed, seq) and that different seqs actually vary.
func TestMessageFateDeterministic(t *testing.T) {
	plan := &faults.Plan{Seed: 42, Rules: []faults.Rule{{DropProb: 0.3, DelayMin: 1, DelayMax: 50}}}
	varied := false
	var prevDrop bool
	var prevDelay int
	for seq := uint64(0); seq < 200; seq++ {
		d1, del1 := plan.MessageFate(1, 2, seq, 10)
		d2, del2 := plan.MessageFate(1, 2, seq, 9999) // step must not matter
		if d1 != d2 || del1 != del2 {
			t.Fatalf("seq %d: fate not deterministic: (%t,%d) vs (%t,%d)", seq, d1, del1, d2, del2)
		}
		if seq > 0 && (d1 != prevDrop || (!d1 && del1 != prevDelay)) {
			varied = true
		}
		prevDrop, prevDelay = d1, del1
	}
	if !varied {
		t.Error("200 sequence numbers produced identical fates; hash not mixing")
	}
}

// TestRulesOverlay checks rule composition: a targeted drop rule and a
// catch-all delay rule both apply — the drop decides its link, the delay
// still reaches everything that survives.
func TestRulesOverlay(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{To: faults.NodeSet{3}, DropProb: 1},
		{DelayMin: 2, DelayMax: 5},
	}}
	if drop, _ := plan.MessageFate(1, 3, 0, 0); !drop {
		t.Error("message to node 3 not dropped by the targeted rule")
	}
	drop, delay := plan.MessageFate(1, 2, 0, 0)
	if drop {
		t.Error("message to node 2 dropped despite matching no drop rule")
	}
	if delay < 2 || delay > 5 {
		t.Errorf("message to node 2 delayed %d steps, want within [2,5]", delay)
	}
	// Two matching delay rules accumulate.
	both := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{DelayMin: 10, DelayMax: 10},
		{DelayMin: 7, DelayMax: 7},
	}}
	if _, delay := both.MessageFate(1, 2, 0, 0); delay != 17 {
		t.Errorf("stacked fixed delays gave %d, want 17", delay)
	}
}

// abdRun drives a small SWMR ABD deployment (n=2f+1) through a fixed
// workload under the given fault scenario spec.
func abdRun(t *testing.T, n, f int, spec string) *workload.Result {
	t.Helper()
	cl, err := abd.Deploy(abd.Options{Servers: n, F: f, Writers: 1, Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	var plan *faults.Plan
	if sc != nil {
		plan, err = sc.Build(n, f, 7)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := workload.Run(cl, workload.Spec{
		Seed: 5, Writes: 4, Reads: 4, TargetNu: 1, ValueBytes: 16,
		FaultPlan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestABDSurvivesFCrashes is the first acceptance criterion: ABD with
// n = 2f+1 servers completes every operation with f servers crashed from
// step 0, and the history checks atomic.
func TestABDSurvivesFCrashes(t *testing.T) {
	res := abdRun(t, 3, 1, "crash-f@0")
	if res.Quiescent {
		t.Fatal("run went quiescent with only f crashed servers")
	}
	if pending := res.History.PendingOps(); len(pending) != 0 {
		t.Fatalf("%d operations still pending: %v", len(pending), pending)
	}
	if res.Faults.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", res.Faults.Crashes)
	}
	if err := res.CheckConsistency("atomic"); err != nil {
		t.Errorf("atomicity under f crashes: %v", err)
	}
}

// TestABDQuiescentBeyondF is the second acceptance criterion: with f+1
// servers crashed no majority quorum survives, so the run must go quiescent
// (liveness lost) while its completed prefix still checks atomic.
func TestABDQuiescentBeyondF(t *testing.T) {
	res := abdRun(t, 3, 1, "crash-majority@0")
	if !res.Quiescent {
		t.Fatal("run completed despite f+1 crashed servers; quorum math is broken")
	}
	if pending := res.History.PendingOps(); len(pending) == 0 {
		t.Error("quiescent run has no pending operations")
	}
	if res.Faults.Crashes != 2 {
		t.Errorf("crashes = %d, want 2", res.Faults.Crashes)
	}
	if err := res.CheckConsistency("atomic"); err != nil {
		t.Errorf("atomicity of the completed prefix: %v", err)
	}
}

// TestPartitionThenHealAtomic is the third acceptance criterion: a
// quorum-killing partition stalls the run, heals, the held messages flow,
// every operation completes and the history checks atomic.
func TestPartitionThenHealAtomic(t *testing.T) {
	res := abdRun(t, 3, 1, "partition@30:5000")
	if res.Quiescent {
		t.Fatal("run stayed quiescent after the partition healed")
	}
	if pending := res.History.PendingOps(); len(pending) != 0 {
		t.Fatalf("%d operations still pending after heal", len(pending))
	}
	if res.Faults.FastForwards == 0 {
		t.Error("no fast-forwards recorded; the partition never actually stalled the run")
	}
	if err := res.CheckConsistency("atomic"); err != nil {
		t.Errorf("atomicity across partition+heal: %v", err)
	}
}

// TestDelayReorderingKeepsAtomicity runs ABD under heavy random per-message
// delays (which reorder every link) and checks safety is unaffected.
func TestDelayReorderingKeepsAtomicity(t *testing.T) {
	res := abdRun(t, 5, 2, "delay=1:40")
	if res.Quiescent {
		t.Fatal("delays alone must never cost liveness")
	}
	if res.Faults.DelayedMessages == 0 {
		t.Fatal("no messages were delayed; scenario had no effect")
	}
	if err := res.CheckConsistency("atomic"); err != nil {
		t.Errorf("atomicity under delay/reorder: %v", err)
	}
}

// TestLossySweepSafety sweeps drop probabilities; each point must either
// complete or go quiescent, and the completed operations must stay atomic
// either way.
func TestLossySweepSafety(t *testing.T) {
	for _, spec := range []string{"lossy=0.01", "lossy=0.1", "lossy=0.3"} {
		res := abdRun(t, 5, 2, spec)
		if err := res.CheckConsistency("atomic"); err != nil {
			t.Errorf("%s: atomicity violated: %v", spec, err)
		}
		if res.Faults.Drops == 0 && strings.HasSuffix(spec, "0.3") {
			t.Errorf("%s: no drops recorded", spec)
		}
	}
}

// TestCrashRecoverCompletes crashes f servers and revives them: the run must
// complete and stay atomic through the outage.
func TestCrashRecoverCompletes(t *testing.T) {
	res := abdRun(t, 3, 1, "crash-f@10:400")
	if res.Quiescent {
		t.Fatal("run quiescent despite recovery")
	}
	if res.Faults.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", res.Faults.Recoveries)
	}
	if err := res.CheckConsistency("atomic"); err != nil {
		t.Errorf("atomicity across crash/recovery: %v", err)
	}
}

// TestComposedScenario overlays loss and delay in one plan: BOTH effects
// must be observable — a catch-all loss rule must not shadow the delay rule.
func TestComposedScenario(t *testing.T) {
	res := abdRun(t, 5, 2, "lossy=0.05+delay=1:10")
	if res.Faults.Drops == 0 {
		t.Error("composed scenario produced no drops")
	}
	if res.Faults.DelayedMessages == 0 {
		t.Error("composed scenario produced no delays (loss rule shadowed the delay rule)")
	}
	if err := res.CheckConsistency("atomic"); err != nil {
		t.Errorf("atomicity under composed faults: %v", err)
	}
}

// fate is one MessageFate decision: the question the kernel asked and the
// plan's answer.
type fate struct {
	From, To ioa.NodeID
	Seq      uint64
	Step     int
	Drop     bool
	Delay    int
}

// fateLog wraps a plan and records every MessageFate decision the kernel
// asks of it, in the order asked.
type fateLog struct {
	*faults.Plan
	fates []fate
}

func (l *fateLog) MessageFate(from, to ioa.NodeID, seq uint64, step int) (bool, int) {
	drop, delay := l.Plan.MessageFate(from, to, seq, step)
	l.fates = append(l.fates, fate{From: from, To: to, Seq: seq, Step: step, Drop: drop, Delay: delay})
	return drop, delay
}

// recordedABDRun is abdRun with the plan's decisions recorded: the plan is
// installed wrapped, before the driver runs, so every send's fate lands in
// the log.
func recordedABDRun(t *testing.T, n, f int, spec string) ([]fate, *workload.Result) {
	t.Helper()
	cl, err := abd.Deploy(abd.Options{Servers: n, F: f, Writers: 1, Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Build(n, f, 7)
	if err != nil {
		t.Fatal(err)
	}
	log := &fateLog{Plan: plan}
	cl.Sys.SetFaultPlan(log)
	res, err := workload.Run(cl, workload.Spec{Seed: 5, Writes: 4, Reads: 4, TargetNu: 1, ValueBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	return log.fates, res
}

// TestSameSeedSameFaultTrace replays the same seeded run twice and compares
// the plan's decisions one by one — every send's drop and delay, with the
// link, sequence number and step it was decided at — and the fault counters.
func TestSameSeedSameFaultTrace(t *testing.T) {
	a, ra := recordedABDRun(t, 5, 2, "lossy=0.1+delay=1:20")
	b, rb := recordedABDRun(t, 5, 2, "lossy=0.1+delay=1:20")
	if ra.Faults.Drops == 0 || ra.Faults.DelayedMessages == 0 {
		t.Fatalf("no fault events decided: %+v", ra.Faults)
	}
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decisions diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if ra.Faults != rb.Faults {
		t.Errorf("fault stats differ: %+v vs %+v", ra.Faults, rb.Faults)
	}
}
