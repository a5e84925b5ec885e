package runtime_test

import (
	"context"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestPartitionGateTiming pins the wall-clock outage gate: under a full
// partition over [0, healStep) at StepDur=1ms, an operation invoked at open
// cannot complete before the heal boundary (the gate is closed) and must
// complete well before the op timeout once the window ends (the gate opens).
// Messages parked at the gate are accounted as delays.
func TestPartitionGateTiming(t *testing.T) {
	const (
		stepDur   = time.Millisecond
		healStep  = 400
		tolerance = 25 * time.Millisecond // clock-read skew between test and runtime epoch
	)
	overLinks(t, func(t *testing.T, backend string) {
		cl, _ := deploy(t, store.AlgCAS, 3, 1, 1, 1)
		plan := &faults.Plan{Outages: []faults.Outage{{Start: 0, End: healStep, Symmetric: true}}}
		t0 := time.Now()
		in, err := runtime.OpenInteractive(backend, cl, plan, runtime.Config{StepDur: stepDur, OpTimeout: 20 * time.Second}, nil)
		if err != nil {
			t.Fatalf("OpenInteractive: %v", err)
		}
		defer in.Close()

		val := make([]byte, 32)
		if _, pending, err := in.RunOp(context.Background(), cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: val}); err != nil || pending {
			t.Fatalf("write through the partition: pending=%t err=%v", pending, err)
		}
		elapsed := time.Since(t0)
		heal := healStep * stepDur
		if elapsed < heal-tolerance {
			t.Errorf("write completed %v after open, before the partition healed at %v — the gate leaked", elapsed, heal)
		}
		if max := heal + 10*time.Second; elapsed > max {
			t.Errorf("write completed %v after open; the gate did not reopen near the heal boundary %v", elapsed, heal)
		}
		if fs := in.FaultStats(); fs.DelayedMessages == 0 || fs.DelayStepsTotal == 0 {
			t.Errorf("partition held no messages: %+v", fs)
		}
	})
}

// TestRecoveryServesSnapshotState is the durability acceptance test: a value
// is written, EVERY server then crashes (discarding all volatile state; on
// tcp its listener closes) and recovers from its image (on tcp, on a fresh
// socket), and a subsequent read must return the value — which at that
// point exists nowhere but in the servers' images. Crash, recovery and
// checkpoint counts surface in FaultStats. The skip covers a slow host whose
// write is still in flight at the total crash, which no durability rule can
// save.
func TestRecoveryServesSnapshotState(t *testing.T) {
	const stepDur = time.Millisecond
	overLinks(t, func(t *testing.T, backend string) {
		cl, _ := deploy(t, store.AlgABDMW, 3, 1, 1, 1)
		plan := &faults.Plan{Crashes: []faults.Crash{
			{Node: 1, Step: 500, RecoverStep: 650},
			{Node: 2, Step: 500, RecoverStep: 650},
			{Node: 3, Step: 500, RecoverStep: 650},
		}}
		t0 := time.Now()
		in, err := runtime.OpenInteractive(backend, cl, plan, runtime.Config{StepDur: stepDur}, nil)
		if err != nil {
			t.Fatalf("OpenInteractive: %v", err)
		}
		defer in.Close()

		val := []byte("durable-through-total-crash-0123")
		ctx := context.Background()
		if _, pending, err := in.RunOp(ctx, cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: val}); err != nil || pending {
			t.Fatalf("write: pending=%t err=%v", pending, err)
		}
		if since := time.Since(t0); since > 450*stepDur {
			t.Skipf("write took %v; host too slow to land it before the scheduled crash", since)
		}
		// Sleep past the recovery step plus margin, then read: the only copies
		// of the value live in the servers' restored images.
		time.Sleep(time.Until(t0.Add(800 * stepDur)))
		out, pending, err := in.RunOp(ctx, cl.Readers[0], ioa.Invocation{Kind: ioa.OpRead})
		if err != nil || pending {
			t.Fatalf("read after total crash+recovery: pending=%t err=%v", pending, err)
		}
		if string(out) != string(val) {
			t.Fatalf("read %q after recovery, want the acknowledged value %q", out, val)
		}
		fs := in.FaultStats()
		if fs.Crashes != 3 || fs.Recoveries != 3 {
			t.Errorf("fault stats counted %d crashes, %d recoveries; want 3, 3", fs.Crashes, fs.Recoveries)
		}
		if fs.Checkpoints == 0 {
			t.Error("no checkpoints counted for recovering nodes")
		}
	})
}

// TestHistoryAtomicThroughCrashRecover runs a batch workload through one
// server's crash and recovery, both while operations are in flight: the
// server restarts from its image mid-run, the recorded history must stay
// atomic, and the crash and the recovery must be counted. Every message is
// delayed 1–2 steps, so no operation completes in under four steps and the
// run outlasts the recovery step on any host.
func TestHistoryAtomicThroughCrashRecover(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, cond := deploy(t, store.AlgCAS, 5, 1, 2, 2)
		plan := &faults.Plan{
			Rules:   []faults.Rule{{DelayMin: 1, DelayMax: 2}},
			Crashes: []faults.Crash{{Node: 1, Step: 10, RecoverStep: 30}},
		}
		res, err := runtime.RunConfig(backend, cl, workload.Spec{
			Writes:     24,
			Reads:      24,
			TargetNu:   2,
			ValueBytes: 64,
			FaultPlan:  plan,
		}, runtime.Config{StepDur: time.Millisecond}, nil, nil)
		if err != nil {
			t.Fatalf("RunConfig: %v", err)
		}
		if res.Quiescent {
			t.Errorf("f-bounded crash+recovery lost liveness: %d pending", len(res.History.PendingOps()))
		}
		if res.Faults.Crashes != 1 || res.Faults.Recoveries != 1 {
			t.Errorf("counted %d crashes, %d recoveries; want 1, 1: %+v", res.Faults.Crashes, res.Faults.Recoveries, res.Faults)
		}
		check(t, store.AlgCAS, cond, res.History)
	})
}

// TestCrashReapsGoroutines pins the leak contract: crashed nodes' loops,
// timers and (on tcp) endpoint accept/reader goroutines are fully
// reaped — after a run whose plan crashes servers without recovery, Close
// returns the process to its goroutine baseline.
func TestCrashReapsGoroutines(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		base := goruntime.NumGoroutine()
		cl, _ := deploy(t, store.AlgCAS, 5, 1, 1, 1)
		plan := &faults.Plan{Crashes: []faults.Crash{
			{Node: 1, Step: 50},
			{Node: 2, Step: 50},
		}}
		in, err := runtime.OpenInteractive(backend, cl, plan, runtime.Config{StepDur: time.Millisecond}, nil)
		if err != nil {
			t.Fatalf("OpenInteractive: %v", err)
		}
		if _, pending, err := in.RunOp(context.Background(), cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: make([]byte, 16)}); err != nil || pending {
			t.Fatalf("write before crash: pending=%t err=%v", pending, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for in.FaultStats().Crashes < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("crashes never fired: %+v", in.FaultStats())
			}
			time.Sleep(time.Millisecond)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		for time.Now().Before(deadline) {
			if goruntime.NumGoroutine() <= base {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutines leaked after crash+Close: baseline %d, now %d", base, goruntime.NumGoroutine())
	})
}

// TestQuorumKillQuiesces crashes a majority without recovery: liveness is
// legitimately lost (quiescent verdict, ops pending), never safety, and both
// crashes are counted. The workload is far longer than the step-0 crashes
// take to fire — with a handful of operations the run could finish first —
// and costs one OpTimeout all the same: a timed-out op retires its driver.
func TestQuorumKillQuiesces(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, _ := deploy(t, store.AlgABDMW, 3, 1, 1, 1)
		plan := &faults.Plan{Crashes: []faults.Crash{
			{Node: 1, Step: 0},
			{Node: 2, Step: 0},
		}}
		res, err := runtime.RunConfig(backend, cl, workload.Spec{
			Writes:     400,
			Reads:      400,
			TargetNu:   1,
			ValueBytes: 16,
			FaultPlan:  plan,
		}, runtime.Config{StepDur: time.Millisecond, OpTimeout: 150 * time.Millisecond}, nil, nil)
		if err != nil {
			t.Fatalf("RunConfig: %v", err)
		}
		if !res.Quiescent || len(res.History.PendingOps()) == 0 {
			t.Fatalf("majority crash should be a quiescent verdict: quiescent=%t pending=%d",
				res.Quiescent, len(res.History.PendingOps()))
		}
		if res.Faults.Crashes != 2 {
			t.Errorf("counted %d crashes, want 2", res.Faults.Crashes)
		}
		if err := consistency.CheckAtomic(res.History, nil); err != nil {
			t.Errorf("partial history not atomic: %v", err)
		}
	})
}
