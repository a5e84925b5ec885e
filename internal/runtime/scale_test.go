package runtime_test

import (
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/ioa"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// TestPipelinedManyClients runs a pipelined multi-client workload against 5
// servers whose queues overflow for the whole run — sustained backpressure,
// the regime a spawn-on-overflow fallback turns into a goroutine storm. The
// run must complete, the recorded history must be well-formed (RunConfig
// rejects per-client interval overlap via ioa.History.AppendOp — the
// per-client FIFO/ordering property pipelining must preserve), and the
// goroutine count sampled during the run must stay linear in nodes, drivers
// and connections.
//
// chan runs 2000 clients on mailboxes of 16. tcp runs 128 clients with
// mailboxes of 8: the clients share one TCP endpoint, so the deployment holds
// one connection per server and file descriptors no longer grow with
// clients. It must additionally lose no frame — the guard against a
// transport reader blocked on one client's full mailbox stalling its
// siblings' replies on the shared connection past the drop deadline.
//
// No CheckAtomic here: this test pins scale and ordering, and atomicity of
// the same algorithm is covered by TestRunChecksConsistency.
func TestPipelinedManyClients(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of goroutines, hundreds of sockets")
	}
	scales := map[string]struct {
		clients int // writers, and as many readers
		cfg     runtime.Config
		// budget is the goroutine allowance above the baseline: one loop per
		// node and one driver per client, plus — on tcp — an accept loop per
		// endpoint and, per connection, a reader at each end; senders write
		// their own frames, so no connection has a writer goroutine (the
		// clients' shared endpoint dials the 5 servers, whose replies ride
		// back on the same connection: 6 endpoints, 5 connections).
		budget func(nodes, clients int) int
		noLoss bool
	}{
		runtime.BackendLive: {
			clients: 1000,
			cfg:     runtime.Config{Mailbox: 16, Pipeline: 4, OpTimeout: 60 * time.Second},
			budget:  func(nodes, clients int) int { return nodes + 2*clients },
		},
		runtime.BackendNet: {
			clients: 64,
			cfg:     runtime.Config{Mailbox: 8, Pipeline: 4, OpTimeout: 60 * time.Second},
			budget:  func(nodes, clients int) int { return nodes + 2*clients + 6 + 2*5 },
			noLoss:  true,
		},
	}
	overLinks(t, func(t *testing.T, backend string) {
		sc := scales[backend]
		cl, _ := deploy(t, "abd-mwmr", 5, 1, sc.clients, sc.clients)
		spec := workload.Spec{
			Writes:     2 * sc.clients,
			Reads:      sc.clients,
			TargetNu:   sc.clients,
			ValueBytes: 32,
			Seed:       1,
		}

		baseline := goruntime.NumGoroutine()
		type outcome struct {
			res *workload.Result
			err error
		}
		resCh := make(chan outcome, 1)
		go func() {
			res, err := runtime.RunConfig(backend, cl, spec, sc.cfg, nil, nil)
			resCh <- outcome{res, err}
		}()

		peak := 0
		var out outcome
	sample:
		for {
			select {
			case out = <-resCh:
				break sample
			case <-time.After(2 * time.Millisecond):
				if n := goruntime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
		if out.err != nil {
			t.Fatalf("run failed: %v", out.err)
		}
		if got, want := len(out.res.Latencies), spec.Writes+spec.Reads; got != want {
			t.Fatalf("completed %d of %d ops", got, want)
		}
		if sc.noLoss && out.res.Faults.TransportDropped != 0 {
			t.Fatalf("%d frames dropped on an unfaulted loopback run", out.res.Faults.TransportDropped)
		}
		// Slack of 256 for the harness and stray timers. A goroutine per
		// overflowing message blows far past this under sustained overload.
		if budget := baseline + sc.budget(5+2*sc.clients, sc.clients) + 256; peak > budget {
			t.Fatalf("goroutines peaked at %d (budget %d); overflow is spawning again", peak, budget)
		}
		// Per-client program order: HistoryFromOps inside RunConfig already
		// rejects overlap; re-assert interval ordering per client explicitly.
		lastEnd := make(map[ioa.NodeID]int)
		for _, op := range out.res.History.Ops {
			if op.RespondStep < 0 {
				continue
			}
			if op.InvokeStep < lastEnd[op.Client] {
				t.Fatalf("client %d: op invoked at %d before predecessor ended at %d", op.Client, op.InvokeStep, lastEnd[op.Client])
			}
			lastEnd[op.Client] = op.RespondStep
		}
	})
}
