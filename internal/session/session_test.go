package session

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/consistency"
	"repro/internal/register"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// openSim opens a simulator store and registers its cleanup.
func openSim(t *testing.T, cfg store.Config) *Store {
	t.Helper()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestOpenResolvesConfigOnce: Open fills every default of the zero Config,
// Config() shows them, and nothing downstream re-defaults or rewrites the
// value — it is the same before and after batch runs.
func TestOpenResolvesConfigOnce(t *testing.T) {
	st := openSim(t, store.Config{})
	want := store.Config{
		Algorithms:   []string{store.AlgCAS},
		Servers:      5,
		F:            1,
		Shards:       1,
		Backend:      store.BackendSim,
		StepBudget:   workload.DefaultStepBudget,
		OnlineWindow: consistency.DefaultWindowOps,
		HistoryCap:   store.DefaultHistoryCap,
	}
	if got := st.Config(); !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved zero Config = %+v\nwant %+v", got, want)
	}
	if st.Shards() != 1 || st.Backend() != store.BackendSim {
		t.Errorf("handle reports %d shards on %q, want 1 on sim", st.Shards(), st.Backend())
	}
	for i := 0; i < 2; i++ {
		if _, err := st.RunMulti(workload.MultiSpec{Seed: 1, Keys: 4, Ops: 8, TargetNu: 1, ValueBytes: 32, Faults: []string{"delay=1:4"}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Config(); !reflect.DeepEqual(got, want) {
		t.Errorf("Config changed across RunMulti calls: %+v\nwant %+v", got, want)
	}
}

// TestOneRuntimeConfig: Config.Net is the one runtime configuration both
// wall-clock backends read — the tuning it carries reaches every shard's
// runtime options on live as on net.
func TestOneRuntimeConfig(t *testing.T) {
	const opTimeout = 3 * time.Second
	for _, backend := range []string{store.BackendLive, store.BackendNet} {
		t.Run(backend, func(t *testing.T) {
			st := openSim(t, store.Config{Backend: backend, Shards: 2, Net: runtime.Config{OpTimeout: opTimeout, Pipeline: 3}})
			for shard := 0; shard < 2; shard++ {
				for _, interactive := range []bool{true, false} {
					rc := st.Config().Shard(shard, interactive).Runtime
					if rc.OpTimeout != opTimeout || rc.Pipeline != 3 {
						t.Errorf("shard %d (interactive %v) runtime options carry OpTimeout %v, Pipeline %d; want %v, 3",
							shard, interactive, rc.OpTimeout, rc.Pipeline, opTimeout)
					}
				}
			}
		})
	}
}

func TestOpenValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  store.Config
		want string
	}{
		{"unknown algorithm", store.Config{Algorithms: []string{"paxos"}}, "unknown algorithm"},
		{"unknown backend", store.Config{Backend: "quantum"}, "unknown backend"},
		{"bad fault spec", store.Config{Faults: []string{"bogus"}}, "Faults[0]"},
		{"negative servers", store.Config{Servers: -1}, "Servers must be >= 1"},
		{"negative f", store.Config{Servers: 5, F: -1}, "F must be >= 0"},
		{"negative shards", store.Config{Shards: -1}, "Shards must be >= 1"},
		{"negative clients", store.Config{Writers: -1}, "negative client counts"},
		{"negative budget", store.Config{StepBudget: -5}, "negative step budget"},
		{"negative pipeline", store.Config{Net: runtime.Config{Pipeline: -1}}, "negative pipeline depth"},
		{"single-writer with many writers", store.Config{Algorithms: []string{store.AlgABD}, Writers: 3, Readers: 1}, "single-writer"},
		{"malformed fault window", store.Config{Backend: store.BackendLive, Faults: []string{"partition@40:20"}}, "Faults[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open(%+v) error = %v, want mention of %q", tc.cfg, err, tc.want)
			}
		})
	}
}

// TestPutGetAcrossShards drives a multi-key sequence on a sharded simulator
// store: every key reads back its latest write, the history stays
// consistent, and the metrics account for every operation.
func TestPutGetAcrossShards(t *testing.T) {
	st := openSim(t, store.Config{Shards: 4, Writers: 2, Readers: 2})
	ctx := context.Background()

	latest := make(map[int][]byte)
	seq := uint64(0)
	for round := 0; round < 3; round++ {
		for key := 0; key < 8; key++ {
			seq++
			v := register.MakeValue(64, seq)
			if err := st.Put(ctx, key, v); err != nil {
				t.Fatalf("Put round %d key %d: %v", round, key, err)
			}
			latest[key] = v
		}
	}
	for key, want := range latest {
		got, err := st.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get key %d: %v", key, err)
		}
		// Keys sharing a shard share a register, so a key's read returns the
		// shard's latest write — only keys alone on their shard must match.
		alone := true
		for other := range latest {
			if other != key && st.KeyShard(other) == st.KeyShard(key) {
				alone = false
				break
			}
		}
		if alone && string(got) != string(want) {
			t.Errorf("key %d read %x, want %x", key, got[:8], want[:8])
		}
	}

	if err := st.CheckConsistency(); err != nil {
		t.Errorf("CheckConsistency: %v", err)
	}
	m := st.Metrics()
	if m.TotalWrites != 24 {
		t.Errorf("TotalWrites = %d, want 24", m.TotalWrites)
	}
	if m.TotalReads != len(latest) {
		t.Errorf("TotalReads = %d, want %d", m.TotalReads, len(latest))
	}
	if m.PendingOps != 0 {
		t.Errorf("PendingOps = %d, want 0", m.PendingOps)
	}
	if m.AggregateMaxTotalBits == 0 {
		t.Error("metrics report zero storage after 24 writes")
	}
	if len(m.PerShard) != 4 {
		t.Errorf("PerShard = %d entries, want 4", len(m.PerShard))
	}
}

// TestClientSelectionRangeErrors pins the named-range error text on the
// store's explicit client-selection path.
func TestClientSelectionRangeErrors(t *testing.T) {
	st := openSim(t, store.Config{Writers: 2, Readers: 1})
	ctx := context.Background()
	err := st.PutAs(ctx, 5, 0, register.MakeValue(64, 1))
	if err == nil || !strings.Contains(err.Error(), "writer index 5 out of range [0,2)") {
		t.Errorf("PutAs error = %v, want named range [0,2)", err)
	}
	_, err = st.GetAs(ctx, -1, 0)
	if err == nil || !strings.Contains(err.Error(), "reader index -1 out of range [0,1)") {
		t.Errorf("GetAs error = %v, want named range [0,1)", err)
	}
}

// TestStepBudgetTyped pins the typed ErrStepBudget on an interactive op
// whose budget cannot cover a quorum round trip.
func TestStepBudgetTyped(t *testing.T) {
	st := openSim(t, store.Config{StepBudget: 2})
	err := st.Put(context.Background(), 0, register.MakeValue(64, 1))
	if !errors.Is(err, store.ErrStepBudget) {
		t.Fatalf("Put error = %v, want ErrStepBudget", err)
	}
	// The abandoned op stays pending, and the history remains checkable.
	if m := st.Metrics(); m.PendingOps != 1 {
		t.Errorf("PendingOps = %d, want 1", m.PendingOps)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Errorf("CheckConsistency with pending op: %v", err)
	}
}

// TestSimRetirementAfterAbandonedOp pins the regression where a
// budget-exhausted simulator op could be silently completed inside the
// kernel by a later op's fair run, after which re-invoking the same client
// appended history entries after a pending op and permanently malformed
// the shard history. The client must be retired instead: later Puts
// through the rotation report every writer retired, reads still work, and
// CheckConsistency keeps returning verdicts, not malformed-history errors.
func TestSimRetirementAfterAbandonedOp(t *testing.T) {
	st := openSim(t, store.Config{Algorithms: []string{store.AlgABD}, Servers: 3, F: 1, StepBudget: 2})
	ctx := context.Background()
	if err := st.Put(ctx, 0, register.MakeValue(64, 1)); !errors.Is(err, store.ErrStepBudget) {
		t.Fatalf("first Put = %v, want ErrStepBudget", err)
	}
	// The abandoned Get pumps more deliveries into the shared kernel, which
	// quietly completes the abandoned write inside it — the session history
	// must stay well-formed regardless.
	if _, err := st.Get(ctx, 0); !errors.Is(err, store.ErrStepBudget) {
		t.Fatalf("Get = %v, want ErrStepBudget", err)
	}
	err := st.Put(ctx, 0, register.MakeValue(64, 2))
	if err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("Put on the retired sole writer = %v, want retirement error", err)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Errorf("CheckConsistency after retirement: %v", err)
	}
	if m := st.Metrics(); m.PendingOps != 2 {
		t.Errorf("PendingOps = %d, want the two abandoned ops", m.PendingOps)
	}
}

// TestWallClockRetirement pins the retirement contract on the live and net
// backends, where the session is the one layer that retires clients: under
// total loss a write times out as a genuinely pending operation, the next
// write at that (sole) writer is refused at once instead of queuing behind
// the stuck automaton for another OpTimeout, and the untouched reader is
// still attempted.
func TestWallClockRetirement(t *testing.T) {
	const opTimeout = 50 * time.Millisecond
	for _, backend := range []string{store.BackendLive, store.BackendNet} {
		t.Run(backend, func(t *testing.T) {
			rc := runtime.Config{OpTimeout: opTimeout}
			st := openSim(t, store.Config{Backend: backend, Faults: []string{"lossy=1"}, Net: rc})
			ctx := context.Background()

			err := st.Put(ctx, 0, register.MakeValue(64, 1))
			if err == nil || !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("Put under total loss = %v, want a timeout", err)
			}
			if m := st.Metrics(); m.PendingOps != 1 || m.TotalWrites != 1 {
				t.Errorf("after the timed-out Put: PendingOps = %d, TotalWrites = %d; want the abandoned write counted pending", m.PendingOps, m.TotalWrites)
			}

			start := time.Now()
			err = st.Put(ctx, 0, register.MakeValue(64, 2))
			if err == nil || !strings.Contains(err.Error(), "retired") {
				t.Errorf("Put at the retired writer = %v, want a retirement refusal", err)
			}
			if took := time.Since(start); took >= opTimeout/2 {
				t.Errorf("retired writer took %v to refuse; must fail fast, not wait out OpTimeout %v", took, opTimeout)
			}

			if _, err := st.Get(ctx, 0); err == nil || strings.Contains(err.Error(), "retired") {
				t.Errorf("Get at the untouched reader = %v, want an attempted (timed-out) read, not a refusal", err)
			}
			if m := st.Metrics(); m.TotalReads != 1 || m.PendingOps != 2 {
				t.Errorf("after the Get: TotalReads = %d, PendingOps = %d; want 1, 2", m.TotalReads, m.PendingOps)
			}
			if err := st.CheckConsistency(); err != nil {
				t.Errorf("CheckConsistency with pending ops: %v", err)
			}
		})
	}
}

// TestContextCancelled pins context awareness: an already-cancelled context
// fails fast without invoking anything.
func TestContextCancelled(t *testing.T) {
	st := openSim(t, store.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.Put(ctx, 0, register.MakeValue(64, 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("Put on cancelled ctx = %v, want context.Canceled", err)
	}
	if m := st.Metrics(); m.TotalWrites != 0 {
		t.Errorf("cancelled op counted: TotalWrites = %d", m.TotalWrites)
	}
}

// TestLiveInteractive drives the same interactive surface on the live
// backend: concurrent multi-key clients, value round trip, consistency.
func TestLiveInteractive(t *testing.T) {
	st := openSim(t, store.Config{Backend: store.BackendLive, Shards: 2, Writers: 2, Readers: 2})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				v := register.MakeValue(64, uint64(k*100+i+1))
				if err := st.Put(ctx, k, v); err != nil {
					errs[k] = fmt.Errorf("put key %d: %w", k, err)
					return
				}
				if _, err := st.Get(ctx, k); err != nil {
					errs[k] = fmt.Errorf("get key %d: %w", k, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CheckConsistency(); err != nil {
		t.Errorf("live CheckConsistency: %v", err)
	}
	m := st.Metrics()
	if m.TotalWrites != 12 || m.TotalReads != 12 {
		t.Errorf("op counts = (%d writes, %d reads), want (12, 12)", m.TotalWrites, m.TotalReads)
	}
	if m.LatencyP99 == 0 {
		t.Error("live metrics report zero p99 latency after 24 completed ops")
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := st.Put(ctx, 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
}

// TestRunWorkloadBatch checks the handle's single-register batch path on
// the simulator, including the config fault scenario inheritance.
func TestRunWorkloadBatch(t *testing.T) {
	st := openSim(t, store.Config{Algorithms: []string{store.AlgABDMW}, Faults: []string{"lossy=0.02"}, Seed: 7})
	res, err := st.RunWorkload(workload.Spec{Seed: 7, Writes: 8, Reads: 8, TargetNu: 2, ValueBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsistency(st.Condition()); err != nil {
		t.Errorf("consistency (%s): %v", st.Condition(), err)
	}
	if res.Faults.Drops == 0 {
		t.Error("lossy scenario from the store config injected no drops")
	}
}

// TestRunMultiDeterministic checks the handle's sharded batch path: same
// seed, same fingerprint at any worker count, inheriting the store's
// algorithm mix and fault scenarios.
func TestRunMultiDeterministic(t *testing.T) {
	spec := workload.MultiSpec{
		Seed: 3, Keys: 16, Ops: 48, ReadFraction: 0.25, TargetNu: 2, ValueBytes: 64,
	}
	cfg := store.Config{Algorithms: []string{store.AlgCAS, store.AlgABDMW}, Shards: 4, Workers: 1, Faults: []string{"delay=1:8"}}
	st1 := openSim(t, cfg)
	cfg.Workers = 4
	st4 := openSim(t, cfg)
	r1, err := st1.RunMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := st4.RunMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint() != r4.Fingerprint() {
		t.Errorf("fingerprints differ across worker counts:\n%s\n%s", r1.Fingerprint(), r4.Fingerprint())
	}
	if r1.Faults.DelayedMessages == 0 {
		t.Error("config fault scenario not inherited by RunMulti")
	}
}

// TestLatencyWindowIsBounded: a shard remembers the durations of its last
// latencyWindow completed operations and no more, so a long-lived store's
// Metrics stays the same size and its percentiles follow recent operations.
func TestLatencyWindowIsBounded(t *testing.T) {
	st := openSim(t, store.Config{})
	sh := st.shards[0]
	sh.mu.Lock()
	for i := 0; i < latencyWindow; i++ {
		sh.recordLatency(time.Hour) // old and slow
	}
	sh.mu.Unlock()
	if m := st.Metrics(); m.LatencyP50 != time.Hour || m.LatencyP99 != time.Hour {
		t.Fatalf("full window of 1h ops: p50 %v p99 %v", m.LatencyP50, m.LatencyP99)
	}
	sh.mu.Lock()
	for i := 0; i < latencyWindow-1; i++ {
		sh.recordLatency(time.Millisecond)
	}
	held := len(sh.latencies)
	sh.mu.Unlock()
	if held != latencyWindow {
		t.Fatalf("ring holds %d durations, want %d", held, latencyWindow)
	}
	// One old operation is left: it is the maximum, not the 99th percentile.
	if m := st.Metrics(); m.LatencyP50 != time.Millisecond || m.LatencyP99 != time.Millisecond {
		t.Fatalf("after a window of 1ms ops: p50 %v p99 %v", m.LatencyP50, m.LatencyP99)
	}
}

// TestStandingSimShardRetention: a standing simulator store opened without
// WithOnlineCheck keeps memory independent of the operations it has served
// on every shard, atomic and regular alike — the kernel's history holds no
// settled operation, its channels hold no backlog (not even into the server
// crashed for good), and what the shard retains against HistoryCap stays
// within the online window plus what is pending, the same bounds after 2,000
// and after 10,000 operations.
func TestStandingSimShardRetention(t *testing.T) {
	st := openSim(t, store.Config{
		Algorithms: []string{store.AlgCASGC, store.AlgABDMW, store.AlgTwoVersion},
		Faults:     []string{"delay=1:16", "crash-f@10", "none"},
		Shards:     3,
		Seed:       3,
	})
	// One key per shard.
	keys := []int{-1, -1, -1}
	for key, found := 0, 0; found < len(keys); key++ {
		if s := st.KeyShard(key); keys[s] < 0 {
			keys[s] = key
			found++
		}
	}
	ctx := context.Background()
	seq := uint64(0)
	served := make([]int, len(keys))
	run := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			key := keys[i%len(keys)]
			served[i%len(keys)]++
			if (i/len(keys))%2 == 0 {
				seq++
				if err := st.Put(ctx, key, register.MakeValue(64, seq)); err != nil {
					t.Fatalf("Put %d: %v", seq, err)
				}
			} else if _, err := st.Get(ctx, key); err != nil {
				t.Fatalf("Get key %d: %v", key, err)
			}
		}
	}
	window := st.Config().OnlineWindow
	total := 0
	for _, ops := range []int{2000, 8000} {
		run(ops)
		total += ops
		if err := st.CheckConsistency(); err != nil {
			t.Fatalf("after %d ops: CheckConsistency: %v", total, err)
		}
		m := st.Metrics()
		for i, sh := range st.shards {
			sm := m.PerShard[i]
			n := served[i]
			if sm.Writes+sm.Reads != n {
				t.Fatalf("after %d ops: shard %d counts %d ops, want %d", total, i, sm.Writes+sm.Reads, n)
			}
			if h := sh.cl.Sys.History(); len(h.Ops) != 0 {
				t.Errorf("after %d ops: shard %d kernel history holds %d ops, want none", total, i, len(h.Ops))
			}
			ids := sh.cl.Sys.NodeIDs()
			queued := 0
			for _, from := range ids {
				for _, to := range ids {
					queued += sh.cl.Sys.QueueLen(from, to)
				}
			}
			if queued > len(ids)*len(ids) {
				t.Errorf("after %d ops: shard %d channels hold %d messages", total, i, queued)
			}
			if sm.RetainedOps > window+sm.PendingOps {
				t.Errorf("after %d ops: shard %d retains %d ops, over the %d-op window plus %d pending",
					total, i, sm.RetainedOps, window, sm.PendingOps)
			}
			if sm.OpsVerified < int64(n-window) {
				t.Errorf("after %d ops: shard %d verified only %d of %d ops online", total, i, sm.OpsVerified, n)
			}
		}
		// The fault counters survive the dropped records.
		if f := m.PerShard[0].Faults; f.DelayedMessages == 0 {
			t.Errorf("after %d ops: delay shard reports no delayed messages: %+v", total, f)
		}
		if f := m.PerShard[1].Faults; f.Crashes != 1 || f.Drops == 0 {
			t.Errorf("after %d ops: crash shard reports %d crashes and %d drops, want 1 and the messages to the crashed server",
				total, f.Crashes, f.Drops)
		}
	}
}
