package runtime_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/register"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// links is the table every behavioural test in this package runs over: one
// suite, two links. "chan" is the in-process channel link behind the live
// backend, "tcp" the loopback-socket link behind the net backend.
var links = []struct{ name, backend string }{
	{"chan", runtime.BackendLive},
	{"tcp", runtime.BackendNet},
}

// overLinks runs f once per link as a sequential subtest (sequential, so the
// goroutine-count assertions of one never see the other's nodes).
func overLinks(t *testing.T, f func(t *testing.T, backend string)) {
	for _, l := range links {
		l := l
		t.Run(l.name, func(t *testing.T) { f(t, l.backend) })
	}
}

func deploy(t *testing.T, alg string, n, f, writers, readers int) (*cluster.Cluster, string) {
	t.Helper()
	cl, cond, err := store.DeployAlgorithmSized(alg, n, f, writers, readers)
	if err != nil {
		t.Fatalf("deploy %s: %v", alg, err)
	}
	return cl, cond
}

func check(t *testing.T, alg, cond string, h *ioa.History) {
	t.Helper()
	if err := consistency.Check(cond, h); err != nil {
		t.Errorf("%s history not %s: %v", alg, cond, err)
	}
}

// TestRunChecksConsistency drives each multi-writer algorithm on the runtime
// and verifies the recorded history passes the algorithm's consistency
// condition — the backend contract's safety half; on tcp every protocol
// message crosses the wire codec and a loopback socket.
func TestRunChecksConsistency(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		for _, alg := range []string{store.AlgABDMW, store.AlgCAS, store.AlgCASGC} {
			alg := alg
			t.Run(alg, func(t *testing.T) {
				t.Parallel()
				cl, cond := deploy(t, alg, 5, 1, 3, 3)
				res, err := runtime.RunConfig(backend, cl, workload.Spec{
					Writes:     24,
					Reads:      24,
					TargetNu:   3,
					ValueBytes: 64,
				}, runtime.Config{}, nil, nil)
				if err != nil {
					t.Fatalf("RunConfig: %v", err)
				}
				if res.Quiescent || len(res.History.PendingOps()) != 0 {
					t.Fatalf("fault-free run reported quiescent=%t pending=%d", res.Quiescent, len(res.History.PendingOps()))
				}
				if got := len(res.History.Ops); got != 48 {
					t.Fatalf("history has %d ops, want 48", got)
				}
				if len(res.Latencies) != 48 {
					t.Fatalf("measured %d latencies, want 48", len(res.Latencies))
				}
				if res.Storage.MaxTotalBits <= 0 || res.Storage.MaxServerBits <= 0 {
					t.Fatalf("storage not metered: %+v", res.Storage)
				}
				if res.PeakActiveWrites < 1 || res.PeakActiveWrites > 3 {
					t.Fatalf("peak active writes %d outside [1,3]", res.PeakActiveWrites)
				}
				check(t, alg, cond, res.History)
			})
		}
	})
}

// TestDelayRulesApply runs under a pure delay plan and checks the delay
// counters moved while the history stays atomic and complete.
func TestDelayRulesApply(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, cond := deploy(t, store.AlgCAS, 5, 1, 2, 2)
		plan, err := faults.Delay{Min: 1, Max: 8}.Build(5, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.RunConfig(backend, cl, workload.Spec{
			Writes:     16,
			Reads:      16,
			TargetNu:   2,
			ValueBytes: 64,
			FaultPlan:  plan,
		}, runtime.Config{}, nil, nil)
		if err != nil {
			t.Fatalf("RunConfig: %v", err)
		}
		if res.Faults.DelayedMessages == 0 || res.Faults.DelayStepsTotal == 0 {
			t.Errorf("delay plan applied no delays: %+v", res.Faults)
		}
		if res.Quiescent {
			t.Errorf("pure delay run lost liveness: %d pending", len(res.History.PendingOps()))
		}
		check(t, store.AlgCAS, cond, res.History)
	})
}

// TestPartitionHealsAndCompletes blocks every link from the start of a batch
// run: messages are held at the senders (on tcp, before any socket write),
// and once the window ends — in wall-clock time, via StepDur — the held
// messages flow and every operation completes. Held messages are accounted
// as delays, and the history stays atomic.
func TestPartitionHealsAndCompletes(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, cond := deploy(t, store.AlgCAS, 5, 1, 1, 1)
		// Block everything for the first 200 steps; at StepDur=1ms the
		// network heals after ~200ms, well inside the op timeout.
		plan := &faults.Plan{Outages: []faults.Outage{{Start: 0, End: 200, Symmetric: true}}}
		res, err := runtime.RunConfig(backend, cl, workload.Spec{
			Writes:     2,
			Reads:      2,
			TargetNu:   1,
			ValueBytes: 16,
			FaultPlan:  plan,
		}, runtime.Config{StepDur: time.Millisecond, OpTimeout: 10 * time.Second}, nil, nil)
		if err != nil {
			t.Fatalf("RunConfig: %v", err)
		}
		if res.Quiescent {
			t.Fatal("run stayed quiescent after the partition healed")
		}
		if got := len(res.History.Ops); got != 4 {
			t.Fatalf("history has %d ops, want 4", got)
		}
		if res.Faults.DelayedMessages == 0 {
			t.Error("partition held no messages")
		}
		check(t, store.AlgCAS, cond, res.History)
	})
}

// bareServer is a minimal server with the ioa.Node surface and nothing
// else: its durable image is its Clone, so it crashes and recovers like any
// server.
type bareServer struct{ id ioa.NodeID }

func (s *bareServer) ID() ioa.NodeID                                       { return s.id }
func (s *bareServer) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects { return ioa.Effects{} }
func (s *bareServer) Clone() ioa.Node                                      { cp := *s; return &cp }

type bareClient struct{ id ioa.NodeID }

func (c *bareClient) ID() ioa.NodeID                                       { return c.id }
func (c *bareClient) Busy() bool                                           { return false }
func (c *bareClient) Deliver(from ioa.NodeID, msg ioa.Message) ioa.Effects { return ioa.Effects{} }
func (c *bareClient) Clone() ioa.Node                                      { cp := *c; return &cp }
func (c *bareClient) Invoke(inv ioa.Invocation) ioa.Effects {
	return ioa.Effects{Response: &ioa.Response{Kind: inv.Kind}}
}

// bareCluster deploys one bareServer and one bareClient writer.
func bareCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	sys := ioa.NewSystem()
	if err := sys.AddServer(&bareServer{id: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddClient(&bareClient{id: 101}); err != nil {
		t.Fatal(err)
	}
	return &cluster.Cluster{
		Sys:     sys,
		Servers: []ioa.NodeID{1},
		Writers: []ioa.NodeID{101},
	}
}

// TestUnsupportedPlansAreTyped pins the remaining eager rejections and their
// type: the random crash budget, and scheduled recovery of a client, both
// surface as faults.ErrUnsupported via errors.Is before any goroutine starts
// or socket opens. Outage windows and crash schedules themselves are not
// rejected (see the chaos tests), and a server with only the ioa.Node
// surface crashes, with or without a scheduled recovery, and recovers.
func TestUnsupportedPlansAreTyped(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, _ := deploy(t, store.AlgCAS, 5, 1, 1, 1)
		_, err := runtime.RunConfig(backend, cl, workload.Spec{Writes: 1, TargetNu: 1, ValueBytes: 8, Crashes: 1}, runtime.Config{}, nil, nil)
		if !errors.Is(err, faults.ErrUnsupported) {
			t.Errorf("crash budget: err = %v, want faults.ErrUnsupported", err)
		}

		clientPlan := &faults.Plan{Crashes: []faults.Crash{{Node: 101, Step: 5, RecoverStep: 10}}}
		_, err = runtime.RunConfig(backend, bareCluster(t), workload.Spec{Writes: 1, TargetNu: 1, ValueBytes: 8, FaultPlan: clientPlan}, runtime.Config{}, nil, nil)
		if !errors.Is(err, faults.ErrUnsupported) {
			t.Errorf("recovery of a client: err = %v, want faults.ErrUnsupported", err)
		}

		noRecover := &faults.Plan{Crashes: []faults.Crash{{Node: 1, Step: 5}}}
		in, err := runtime.OpenInteractive(backend, bareCluster(t), noRecover, runtime.Config{}, nil)
		if err != nil {
			t.Fatalf("crash-only plan on a bare server: %v", err)
		}
		in.Close()

		recovers := &faults.Plan{Crashes: []faults.Crash{{Node: 1, Step: 0, RecoverStep: 5}}}
		in, err = runtime.OpenInteractive(backend, bareCluster(t), recovers, runtime.Config{StepDur: time.Millisecond}, nil)
		if err != nil {
			t.Fatalf("crash+recovery plan on a bare server: %v", err)
		}
		defer in.Close()
		for deadline := time.Now().Add(5 * time.Second); in.FaultStats().Recoveries == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if fs := in.FaultStats(); fs.Crashes != 1 || fs.Recoveries != 1 {
			t.Errorf("bare server: %d crashes, %d recoveries; want 1, 1", fs.Crashes, fs.Recoveries)
		}
	})
	if _, err := runtime.RunConfig("carrier-pigeon", bareCluster(t), workload.Spec{Writes: 1, TargetNu: 1, ValueBytes: 8}, runtime.Config{}, nil, nil); err == nil {
		t.Error("unknown backend name accepted")
	}
}

// TestLossyTimeoutIsVerdict forces every message to drop (on tcp, before its
// socket write): operations must time out, surface as a Quiescent verdict
// (not a hang or an error), and the empty completed history still checks
// atomic.
func TestLossyTimeoutIsVerdict(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, _ := deploy(t, store.AlgCAS, 5, 1, 1, 1)
		plan := &faults.Plan{Seed: 3, Rules: []faults.Rule{{DropProb: 1}}}
		res, err := runtime.RunConfig(backend, cl, workload.Spec{
			Writes:     2,
			Reads:      1,
			TargetNu:   1,
			ValueBytes: 8,
			FaultPlan:  plan,
		}, runtime.Config{OpTimeout: 50 * time.Millisecond}, nil, nil)
		if err != nil {
			t.Fatalf("RunConfig: %v", err)
		}
		if !res.Quiescent || len(res.History.PendingOps()) == 0 {
			t.Fatalf("total loss should be a quiescent verdict: quiescent=%t pending=%d",
				res.Quiescent, len(res.History.PendingOps()))
		}
		if res.Faults.Drops == 0 {
			t.Error("no drops counted")
		}
		if err := consistency.CheckAtomic(res.History, nil); err != nil {
			t.Errorf("partial history not atomic: %v", err)
		}
	})
}

// TestInteractive exercises the single-op path: a write and a read at
// distinct clients, with the read returning the written value, storage
// metered mid-session, and the closed/non-client error paths. Retirement
// after a timed-out operation is the session's (session's
// TestWallClockRetirement).
func TestInteractive(t *testing.T) {
	overLinks(t, func(t *testing.T, backend string) {
		cl, _ := deploy(t, store.AlgCAS, 5, 1, 1, 1)
		in, err := runtime.OpenInteractive(backend, cl, nil, runtime.Config{}, nil)
		if err != nil {
			t.Fatalf("OpenInteractive: %v", err)
		}
		defer in.Close()

		writer, reader := cl.Writers[0], cl.Readers[0]
		val := register.MakeValue(32, 42)
		ctx := context.Background()
		if _, pending, err := in.RunOp(ctx, writer, ioa.Invocation{Kind: ioa.OpWrite, Value: val}); err != nil || pending {
			t.Fatalf("write: pending=%t err=%v", pending, err)
		}
		out, pending, err := in.RunOp(ctx, reader, ioa.Invocation{Kind: ioa.OpRead})
		if err != nil || pending {
			t.Fatalf("read: pending=%t err=%v", pending, err)
		}
		if string(out) != string(val) {
			t.Fatalf("read %d bytes, want the %d-byte written value", len(out), len(val))
		}
		if rep := in.Storage(); rep.MaxTotalBits <= 0 {
			t.Errorf("mid-session storage not metered: %+v", rep)
		}
		if _, _, err := in.RunOp(ctx, ioa.NodeID(9999), ioa.Invocation{Kind: ioa.OpRead}); err == nil {
			t.Error("invoking a non-client node must fail")
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err) // idempotent
		}
		if _, _, err := in.RunOp(ctx, writer, ioa.Invocation{Kind: ioa.OpRead}); err == nil {
			t.Error("invoke after close must fail")
		}
	})
}

// TestSyncPeriodFromChecker: a batch run that feeds an online checker syncs
// its drivers once per checker window, so the checker's peak window stays
// near the window however saturated the clients are. Eight pipelined
// clients rarely leave a natural global idle moment, so without the syncs
// the window would grow far past the bound.
func TestSyncPeriodFromChecker(t *testing.T) {
	const window, drivers, pipeline = 8, 8, 8
	overLinks(t, func(t *testing.T, backend string) {
		checker := consistency.NewOnlineChecker(nil, consistency.WithWindowOps(window))
		cl, _ := deploy(t, store.AlgABDMW, 5, 1, drivers/2, drivers/2)
		if _, err := runtime.RunConfig(backend, cl, workload.Spec{
			Writes: 2000, Reads: 2000, TargetNu: drivers / 2, ValueBytes: 16,
		}, runtime.Config{Pipeline: pipeline}, checker, nil); err != nil {
			t.Fatal(err)
		}
		if err := checker.Result(); err != nil {
			t.Fatal(err)
		}
		// Between two sync cuts at most a window's worth of operations plus
		// one per driver issue; the checker retires at the first cut once it
		// holds a window, so it never holds more than two such stretches.
		if mw, bound := checker.MaxWindow(), 2*(window+drivers); mw > bound {
			t.Errorf("peak checker window %d ops, want <= %d", mw, bound)
		}
	})
}
