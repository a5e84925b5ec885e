package shmem

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

func TestQuickstartFlow(t *testing.T) {
	st, err := Open(Config{Algorithms: []string{"abd"}, Servers: 5, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	v := MakeValue(64, 1)
	if err := st.Put(ctx, 0, v); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatalf("read %q, want %q", got, v)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestStepBudgetTyped drives an interactive operation into budget
// exhaustion: one delivery cannot complete a quorum write, and the kernel's
// bare step-limit sentinel must surface as the typed ErrStepBudget naming
// the budget. At its default size the budget is effectively unreachable for
// a live quorum, so the mapping is pinned at a tiny one here.
func TestStepBudgetTyped(t *testing.T) {
	st, err := Open(Config{Algorithms: []string{"abd"}, Servers: 5, F: 2, StepBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	err = st.Put(context.Background(), 0, MakeValue(64, 1))
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("budget-1 write error = %v, want ErrStepBudget", err)
	}
	if !strings.Contains(err.Error(), "budget 1 deliveries") {
		t.Errorf("error %q does not name the exhausted budget", err)
	}
	zero, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer zero.Close()
	if got := zero.Config().StepBudget; got != 2000000 {
		t.Fatalf("default step budget = %d, want the documented 2,000,000", got)
	}
}

// TestHistoryFullRefusesOp fills a shard's history to its cap with an
// operation the checker can never retire: a write abandoned mid-protocol
// (its one-delivery budget exhausted) stays pending, and a pending
// operation pins the online checker's frontier. The next operation is
// refused with ErrHistoryFull before it starts: it is not counted, and the
// value it would have written is not what a later read returns — that read
// is refused too, since nothing can free the shard.
func TestHistoryFullRefusesOp(t *testing.T) {
	st, err := Open(Config{Algorithms: []string{"abd-mwmr"}, Servers: 3, F: 1, Writers: 2, StepBudget: 1, HistoryCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if err := st.Put(ctx, 0, MakeValue(64, 1)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("first write = %v, want ErrStepBudget", err)
	}
	refused := MakeValue(64, 2)
	if err := st.Put(ctx, 0, refused); !errors.Is(err, ErrHistoryFull) {
		t.Fatalf("write at the cap = %v, want ErrHistoryFull", err)
	}
	if m := st.Metrics(); m.TotalWrites != 1 || m.TotalReads != 0 || m.PendingOps != 1 {
		t.Fatalf("after the refused write: TotalWrites %d, TotalReads %d, PendingOps %d; want 1, 0, 1: a refused op is not counted",
			m.TotalWrites, m.TotalReads, m.PendingOps)
	}
	got, err := st.Get(ctx, 0)
	if bytes.Equal(got, refused) {
		t.Fatal("a read returned the value of the write the cap refused")
	}
	if !errors.Is(err, ErrHistoryFull) {
		t.Fatalf("read at the cap = %q, %v; want ErrHistoryFull", got, err)
	}
	if m := st.Metrics(); m.TotalWrites != 1 || m.TotalReads != 0 {
		t.Fatalf("after the refused read: TotalWrites %d, TotalReads %d; want 1, 0", m.TotalWrites, m.TotalReads)
	}
}

// TestOptionsSetTheirField: every functional option is the same as setting
// its Config field — the two spellings open stores that resolve to identical
// configurations.
func TestOptionsSetTheirField(t *testing.T) {
	reg := NewTelemetry()
	for _, tc := range []struct {
		name string
		opt  Option
		cfg  Config
	}{
		{"WithBackend", WithBackend("live"), Config{Backend: "live"}},
		{"WithShards", WithShards(3), Config{Shards: 3}},
		{"WithFaults", WithFaults("lossy=0.01", "none"), Config{Faults: []string{"lossy=0.01", "none"}}},
		{"WithClients", WithClients(3, 2), Config{Writers: 3, Readers: 2}},
		{"WithPipeline", WithPipeline(8), Config{Net: NetConfig{Pipeline: 8}}},
		{"WithOnlineCheck", WithOnlineCheck(), Config{OnlineCheck: true}},
		{"WithTelemetry", WithTelemetry(reg), Config{Telemetry: reg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resolved := func(cfg Config, opts ...Option) Config {
				st, err := Open(cfg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				return st.Config()
			}
			byOption, byField := resolved(Config{}, tc.opt), resolved(tc.cfg)
			if !reflect.DeepEqual(byOption, byField) {
				t.Errorf("option resolves to %+v\nfield resolves to %+v", byOption, byField)
			}
			if reflect.DeepEqual(byOption, resolved(Config{})) {
				t.Errorf("option left the zero Config's resolution unchanged: %+v", byOption)
			}
		})
	}
}

// TestConfigFieldsSurviveOpen: the settings without a With* shorthand are
// Config fields, and Open keeps each one a caller sets instead of replacing
// it with its default.
func TestConfigFieldsSurviveOpen(t *testing.T) {
	tuned := NetConfig{StepDur: time.Millisecond, OpTimeout: 2 * time.Second}
	for _, tc := range []struct {
		name, field string
		cfg         Config
	}{
		{"Net", "Net", Config{Net: tuned}},
		// The live backend's tuning is Net too: there is one runtime config.
		{"Live", "Net", Config{Backend: "live", Net: tuned}},
		{"NetListenAddr", "Net", Config{Backend: "net", Net: NetConfig{ListenAddr: "127.0.0.1:0"}}},
		{"StepBudget", "StepBudget", Config{StepBudget: 5000}},
		{"Seed", "Seed", Config{Seed: 42}},
		{"Workers", "Workers", Config{Workers: 2}},
		{"SkipCheck", "SkipCheck", Config{SkipCheck: true}},
		{"OnlineWindow", "OnlineWindow", Config{OnlineWindow: 64}},
		{"HistoryCap", "HistoryCap", Config{HistoryCap: 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			got := reflect.ValueOf(st.Config()).FieldByName(tc.field).Interface()
			if want := reflect.ValueOf(tc.cfg).FieldByName(tc.field).Interface(); !reflect.DeepEqual(got, want) {
				t.Errorf("Open resolved %s to %+v, want the given %+v", tc.field, got, want)
			}
		})
	}
}

// TestOpenRejectsBadShape is the front-door regression: a negative server
// count used to panic inside cluster construction for every algorithm; Open
// must return an error naming the field, as it documents.
func TestOpenRejectsBadShape(t *testing.T) {
	for _, alg := range StoreAlgorithms() {
		for _, tc := range []struct {
			cfg  Config
			want string
		}{
			{Config{Servers: -1}, "Servers"},
			{Config{Servers: 5, F: -1}, "F must"},
		} {
			tc.cfg.Algorithms = []string{alg}
			st, err := Open(tc.cfg)
			if err == nil {
				st.Close()
				t.Errorf("%s: Open(%+v) succeeded", alg, tc.cfg)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not name %s", alg, err, tc.want)
			}
		}
	}
}

// TestUnknownBackendIsTyped pins the unified selection error: Open with an
// unknown backend fails with the typed ErrUnknownBackend, whose message
// lists every valid name.
func TestUnknownBackendIsTyped(t *testing.T) {
	_, err := Open(Config{}, WithBackend("quantum"))
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("Open with unknown backend: err = %v, want ErrUnknownBackend", err)
	}
	for _, name := range StoreBackends() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list backend %q", err, name)
		}
	}
}

// TestNetBackendPutGet: a store opened on the net backend with an explicit
// listen address reports that backend, and a Put/Get pair round-trips over
// real loopback sockets.
func TestNetBackendPutGet(t *testing.T) {
	st, err := Open(Config{Backend: "net", Net: NetConfig{ListenAddr: "127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Backend(); got != "net" {
		t.Fatalf("backend = %q, want \"net\"", got)
	}
	ctx := context.Background()
	v := MakeValue(48, 7)
	if err := st.Put(ctx, 0, v); err != nil {
		t.Fatal(err)
	}
	out, err := st.Get(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, v) {
		t.Fatalf("Get returned %d bytes, want the written value", len(out))
	}
	if err := st.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossBackendOpen is the PR's acceptance criterion: the same Config
// opened on "sim" and on "live" drives the same multi-key operation
// sequence through Put/Get, and both backends deliver passing consistency
// verdicts plus populated metrics.
func TestCrossBackendOpen(t *testing.T) {
	cfg := Config{
		Algorithms: []string{"cas", "abd-mwmr"},
		Servers:    5,
		F:          1,
		Shards:     3,
	}
	for _, backend := range StoreBackends() {
		t.Run(backend, func(t *testing.T) {
			st, err := Open(cfg, WithBackend(backend), WithClients(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ctx := context.Background()
			seq := uint64(0)
			for round := 0; round < 2; round++ {
				for key := 0; key < 6; key++ {
					seq++
					if err := st.Put(ctx, key, MakeValue(64, seq)); err != nil {
						t.Fatalf("Put key %d: %v", key, err)
					}
					if _, err := st.Get(ctx, key); err != nil {
						t.Fatalf("Get key %d: %v", key, err)
					}
				}
			}
			if err := st.CheckConsistency(); err != nil {
				t.Errorf("CheckConsistency on %s: %v", backend, err)
			}
			m := st.Metrics()
			if m.Backend != backend {
				t.Errorf("Metrics.Backend = %q, want %q", m.Backend, backend)
			}
			if m.TotalWrites != 12 || m.TotalReads != 12 {
				t.Errorf("op counts = (%d, %d), want (12, 12)", m.TotalWrites, m.TotalReads)
			}
			if m.AggregateMaxTotalBits == 0 {
				t.Error("no storage metered")
			}
			// The client-selection path names valid ranges on both backends.
			if err := st.PutAs(ctx, 9, 0, MakeValue(64, 999)); err == nil ||
				!strings.Contains(err.Error(), "writer index 9 out of range [0,2)") {
				t.Errorf("PutAs range error = %v", err)
			}
		})
	}
}

// TestCrashRecoveryVisibleInMetrics opens a live-backend store whose fault
// scenario crashes and recovers f servers, drives a few interactive
// operations, and checks the wall-clock scheduler's crash, recovery and
// checkpoint counts surface in Store.Metrics — the ISSUE 8 observability
// contract.
func TestCrashRecoveryVisibleInMetrics(t *testing.T) {
	st, err := Open(Config{
		Algorithms: []string{"cas"},
		Servers:    5,
		F:          1,
		Shards:     1,
		Faults:     []string{"crash-f@50:150"},
		Net:        NetConfig{StepDur: time.Millisecond},
	}, WithBackend("live"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	if err := st.Put(ctx, 0, MakeValue(64, 1)); err != nil {
		t.Fatal(err)
	}
	// Poll metrics until the scheduled crash and recovery (at 50ms and
	// 150ms) have both fired and been counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := st.Metrics()
		if m.Faults.Crashes >= 1 && m.Faults.Recoveries >= 1 {
			if m.Faults.Checkpoints == 0 {
				t.Errorf("recovery fired with no checkpoints counted: %+v", m.Faults)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crash/recovery never surfaced in Metrics: %+v", m.Faults)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := st.Get(ctx, 0); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if err := st.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestMeasuredStorageRespectsAllApplicableBounds is the repository's
// central invariant (experiments E4-E7): every implemented algorithm's
// measured storage, on every backend, is at least every lower bound that
// applies to it. On live and net the measurement is the sum of per-server
// maxima, an upper estimate of the simulator's step-accurate high-water
// mark, so a bound that holds there is no weaker a check.
func TestMeasuredStorageRespectsAllApplicableBounds(t *testing.T) {
	const valueBytes = 256
	log2V := float64(8 * valueBytes)

	cases := []struct {
		alg              string
		n, f             int
		writers, readers int
		swsrLive         bool // SWSR algorithms meeting the liveness premise: Theorems 4.1/5.1 apply
	}{
		{"abd", 5, 2, 1, 1, true},
		{"abd-mwmr", 5, 2, 2, 1, false},
		{"cas", 7, 2, 2, 1, false},
		{"casgc", 7, 2, 2, 1, false},
		{"twoversion", 5, 2, 1, 1, true},
		{"twoversion-gossip", 5, 2, 1, 1, true},
		// SWSR, but without the liveness premise of Theorems 4.1/5.1: B.1 only.
		{"solo", 5, 2, 1, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.alg, func(t *testing.T) {
			for _, backend := range StoreBackends() {
				t.Run(backend, func(t *testing.T) {
					st, err := Open(Config{Algorithms: []string{tc.alg}, Servers: tc.n, F: tc.f, Backend: backend}, WithClients(tc.writers, tc.readers))
					if err != nil {
						t.Fatal(err)
					}
					defer st.Close()
					nu := tc.writers
					res, err := st.RunWorkload(WorkloadSpec{
						Seed: 3, Writes: 4 * nu, Reads: 2, TargetNu: nu, ValueBytes: valueBytes,
					})
					if err != nil {
						t.Fatal(err)
					}
					p := Params{N: tc.n, F: tc.f}
					measured := float64(res.Storage.MaxTotalBits)
					bounds := map[string]float64{
						"B.1": SingletonTotalBits(p, log2V),
					}
					if tc.swsrLive {
						bounds["4.1"] = Theorem41TotalBits(p, log2V)
						bounds["5.1"] = Theorem51TotalBits(p, log2V)
					}
					// The handle does not expose the write profile Theorem 6.5's
					// applicability is read from; an identical deployment does.
					cl, _, err := store.DeployAlgorithmSized(tc.alg, tc.n, tc.f, tc.writers, tc.readers)
					if err != nil {
						t.Fatal(err)
					}
					if err := cl.Profile.Theorem65Applies(); err == nil {
						bounds["6.5"] = Theorem65TotalBits(p, res.PeakActiveWrites, log2V)
					}
					for name, b := range bounds {
						if measured < b {
							t.Errorf("measured %.0f bits violates Theorem %s bound %.0f", measured, name, b)
						}
					}
				})
			}
		})
	}
}

func TestFigure1MatchesPaperShape(t *testing.T) {
	p := Params{N: 21, F: 10}
	rows, err := Figure1(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Shape facts from the paper's Figure 1:
	// (1) lower bounds are ordered B.1 <= 5.1 <= 6.5 for nu >= 2;
	// (2) Theorem 6.5 meets the ABD line at nu = f+1 and saturates;
	// (3) the erasure upper bound crosses the ABD line between nu=5 and 6.
	for _, r := range rows {
		if r.TheoremB1 > r.Theorem51+1e-9 {
			t.Errorf("nu=%d: B.1 above 5.1", r.Nu)
		}
		if r.Nu >= 2 && r.Theorem51 > r.Theorem65+1e-9 {
			t.Errorf("nu=%d: 5.1 above 6.5", r.Nu)
		}
		if r.Theorem65 > r.ABD+1e-9 {
			t.Errorf("nu=%d: 6.5 above the ABD upper bound", r.Nu)
		}
	}
	if rows[11].Theorem65 != rows[16].Theorem65 {
		t.Error("Theorem 6.5 should saturate at nu = f+1")
	}
	if got := ReplicationCrossoverNu(p); got != 6 {
		t.Errorf("crossover %d, want 6", got)
	}
	if rows[5].Erasure >= rows[5].ABD || rows[6].Erasure < rows[6].ABD {
		t.Error("erasure/ABD crossover should fall between nu=5 and nu=6")
	}
}

func TestProofHarnessesViaFacade(t *testing.T) {
	cfg := ProofConfig{Build: Builder("twoversion", 5, 2, 1), FailServers: []int{3, 4}}
	vals := [][]byte{MakeValue(16, 1), MakeValue(16, 2), MakeValue(16, 3)}
	r41, err := cfg.RunTheorem41(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !r41.Injective {
		t.Error("Theorem 4.1 injectivity should hold")
	}
	rb, err := cfg.RunAppendixB(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Injective {
		t.Error("Appendix B injectivity should hold")
	}
	cas := ProofConfig{Build: Builder("cas", 5, 2, 2), FailServers: []int{4}}
	r65, err := cas.RunTheorem65([][][]byte{
		{MakeValue(16, 1), MakeValue(16, 2)},
		{MakeValue(16, 3), MakeValue(16, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r65.AllRecovered {
		t.Error("CAS values should all be recoverable")
	}
}

func TestSection7ViaFacade(t *testing.T) {
	p := Params{N: 21, F: 10}
	c := Section7Summary(p, 4, 2.0)
	if c.Feasible {
		t.Error("g=2.0 < 42/13 should be infeasible")
	}
}

// Example_openPutGet is the quickstart: open a sharded atomic store on the
// deterministic simulator, write and read across keys, and verify the
// accumulated history.
func Example_openPutGet() {
	st, err := Open(Config{}, WithShards(2))
	if err != nil {
		panic(err)
	}
	defer st.Close()

	ctx := context.Background()
	if err := st.Put(ctx, 1, []byte("hello, shared memory")); err != nil {
		panic(err)
	}
	got, err := st.Get(ctx, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("key 1 reads %q\n", got)

	if err := st.CheckConsistency(); err != nil {
		panic(err)
	}
	fmt.Println("interactive history is consistent")
	// Output:
	// key 1 reads "hello, shared memory"
	// interactive history is consistent
}

// Example_openLiveBackend opens the same Config on the live concurrent
// runtime — node automata on goroutines, messages over channels — and
// drives it through the identical interactive surface.
func Example_openLiveBackend() {
	st, err := Open(Config{}, WithBackend("live"), WithClients(2, 2))
	if err != nil {
		panic(err)
	}
	defer st.Close()

	ctx := context.Background()
	if err := st.Put(ctx, 7, []byte("served from goroutines")); err != nil {
		panic(err)
	}
	got, err := st.Get(ctx, 7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("key 7 reads %q\n", got)

	if err := st.CheckConsistency(); err != nil {
		panic(err)
	}
	m := st.Metrics()
	fmt.Printf("backend %s completed %d ops, all consistent\n", m.Backend, m.TotalWrites+m.TotalReads)
	// Output:
	// key 7 reads "served from goroutines"
	// backend live completed 2 ops, all consistent
}

// Example_runExperiment runs a seeded multi-key batch experiment through
// the handle and compares the metered storage against the paper's
// Theorem B.1 (Singleton) lower bound.
func Example_runExperiment() {
	st, err := Open(Config{Algorithms: []string{"casgc"}, Seed: 42}, WithShards(4))
	if err != nil {
		panic(err)
	}
	defer st.Close()

	res, err := st.RunMulti(MultiWorkloadSpec{
		Seed: 42, Keys: 32, Ops: 64, ReadFraction: 0.25,
		TargetNu: 2, ValueBytes: 256,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ran %d writes and %d reads over 4 shards\n", res.TotalWrites, res.TotalReads)

	p := Params{N: 5, F: 1}
	bound := SingletonTotalBits(p, res.Log2V) / res.Log2V
	for _, s := range res.PerShard {
		if s.Writes > 0 && s.NormalizedTotal < bound {
			fmt.Printf("shard %d beats the Singleton bound — impossible!\n", s.Shard)
		}
	}
	fmt.Println("every shard's storage respects the Singleton bound")
	// Output:
	// ran 47 writes and 17 reads over 4 shards
	// every shard's storage respects the Singleton bound
}
