package store

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/workload"
)

// TestBackendNameRoundTrip pins the selector contract: every listed backend
// resolves by its own name and reports that name back.
func TestBackendNameRoundTrip(t *testing.T) {
	names := Backends()
	if len(names) < 2 {
		t.Fatalf("Backends() = %v, want at least sim and live", names)
	}
	for _, name := range names {
		b, err := BackendByName(name)
		if err != nil {
			t.Fatalf("BackendByName(%q): %v", name, err)
		}
		if got := b.Name(); got != name {
			t.Errorf("BackendByName(%q).Name() = %q", name, got)
		}
	}
}

// TestBackendEmptyDefaultsToSim pins "" selecting the simulator.
func TestBackendEmptyDefaultsToSim(t *testing.T) {
	b, err := BackendByName("")
	if err != nil {
		t.Fatalf("BackendByName(\"\"): %v", err)
	}
	if b.Name() != BackendSim {
		t.Errorf("empty backend name resolved to %q, want %q", b.Name(), BackendSim)
	}
}

// TestBackendUnknownNameError pins the error contract: an unknown selector
// wraps the typed ErrUnknownBackend, names the bad selector, and lists every
// known backend — the single error every selection surface funnels through.
func TestBackendUnknownNameError(t *testing.T) {
	_, err := BackendByName("quantum")
	if err == nil {
		t.Fatal("BackendByName(\"quantum\") succeeded")
	}
	if !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("error %v is not ErrUnknownBackend", err)
	}
	for _, want := range append([]string{`"quantum"`, "unknown backend"}, Backends()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := (Config{Backend: "quantum"}).Resolve(); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("Config.Resolve with unknown backend: err = %v, want ErrUnknownBackend", err)
	}
}

// TestValidateWorkloadPerShard pins that every fault scenario class now
// passes live-backend workload validation — the wall-clock scheduler runs
// step-indexed outages and crashes — and that a genuinely malformed spec
// still fails naming the offending per-shard fault index.
func TestValidateWorkloadPerShard(t *testing.T) {
	base := Config{Shards: 4, Servers: 5, F: 1, Backend: BackendLive}
	load := workload.MultiSpec{Keys: 8, Ops: 8, TargetNu: 1, ValueBytes: 64}

	cases := []struct {
		name   string
		faults []string
		want   string // substring the error must carry; "" = no error
	}{
		{"drop and delay rules pass", []string{"lossy=0.02", "delay=1:8", "none"}, ""},
		{"scheduled crash passes", []string{"none", "crash-f@10"}, ""},
		{"crash with recovery passes", []string{"crash-f@10:200"}, ""},
		{"partition window passes", []string{"lossy=0.01", "delay=1:4", "partition@40:4000"}, ""},
		{"malformed spec names its index", []string{"none", "bogus-scenario"}, "Faults[1]"},
		{"malformed window names its index", []string{"none", "none", "partition@40:20"}, "Faults[2]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := load
			m.Faults = tc.faults
			err := validateWorkload(base, m)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("faults %v accepted, want error naming %s", tc.faults, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
			// The same rejection must surface when the scenarios arrive in
			// the store config: Resolve is what Open runs.
			c := base
			c.Faults = tc.faults
			if _, verr := c.Resolve(); verr == nil || !strings.Contains(verr.Error(), tc.want) {
				t.Errorf("Config.Resolve() = %v, want error naming %s", verr, tc.want)
			}
		})
	}
}

// TestValidateWorkloadRejectsCrashBudget pins the random crash budget
// rejection and its type: it stays unsupported off the simulator (it draws
// crash points from the simulator's schedule) and surfaces as
// faults.ErrUnsupported.
func TestValidateWorkloadRejectsCrashBudget(t *testing.T) {
	err := validateWorkload(Config{Shards: 1, Servers: 5, F: 1, Backend: BackendLive},
		workload.MultiSpec{Keys: 4, Ops: 4, TargetNu: 1, ValueBytes: 64, Crashes: 1})
	if err == nil || !strings.Contains(err.Error(), "Crashes") {
		t.Errorf("crash budget accepted on live backend: %v", err)
	}
	if !errors.Is(err, faults.ErrUnsupported) {
		t.Errorf("crash budget rejection is not faults.ErrUnsupported: %v", err)
	}
}

// TestSimSessionStepBudget pins the interactive path's typed budget error:
// a one-delivery budget cannot complete a quorum write, and the error must
// be ErrStepBudget with the operation left pending.
func TestSimSessionStepBudget(t *testing.T) {
	cl, _, err := DeployShard(AlgCAS, 5, 1, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BackendByName(BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := b.OpenShard(cl, ShardOptions{StepBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, pending, err := sess.RunOp(context.Background(), cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: make([]byte, 64)})
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("RunOp error = %v, want ErrStepBudget", err)
	}
	if !pending {
		t.Error("budget-exhausted op reported as never started; it was invoked and must stay pending")
	}
}

// TestSimSessionCompletesOps drives a write/read pair interactively on the
// simulator session and checks the read returns the written value.
func TestSimSessionCompletesOps(t *testing.T) {
	cl, _, err := DeployShard(AlgABDMW, 3, 1, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BackendByName("")
	sess, err := b.OpenShard(cl, ShardOptions{StepBudget: workload.DefaultStepBudget})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	val := []byte("interactive-value-0123456789abcdef")
	if _, pending, err := sess.RunOp(context.Background(), cl.Writers[0], ioa.Invocation{Kind: ioa.OpWrite, Value: val}); err != nil || pending {
		t.Fatalf("write: pending=%t err=%v", pending, err)
	}
	out, pending, err := sess.RunOp(context.Background(), cl.Readers[0], ioa.Invocation{Kind: ioa.OpRead})
	if err != nil || pending {
		t.Fatalf("read: pending=%t err=%v", pending, err)
	}
	if string(out) != string(val) {
		t.Errorf("read %q, want %q", out, val)
	}
	if rep := sess.Storage(); rep.MaxTotalBits == 0 {
		t.Error("storage report empty after a completed write")
	}
}
