package runtime

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Interactive is a running deployment accepting one-at-a-time client
// operations: the node goroutines (and, on the TCP link, their sockets) stay
// up between calls, so a sequence of RunOp calls interleaves with other
// clients' operations exactly as a real service would. It is the runtime's
// single-op execution path — RunConfig remains for batch experiments — and
// the ShardSession the store's live and net backends hand to session.Store.
//
// RunOp is safe for concurrent use. Client discipline belongs to the caller:
// session.Store holds one operation per client at a time and retires a
// client whose operation timed out (its automaton is stuck mid-protocol
// waiting on lost messages). An operation invoked at such a client anyway
// queues behind the stuck one at the node and times out unstarted.
type Interactive struct {
	rt     *runtime
	closed atomic.Bool
}

// OpenInteractive clones the cluster's automata, attaches them to the named
// backend's link, starts the node goroutines and returns a session ready for
// RunOp. The fault plan applies in full, exactly as in RunConfig: drop/delay
// rules and outage windows at every send, scheduled crash/recovery on the
// runtime's wall-clock step mapping. tel, when it carries a registry,
// receives the session's metrics. Close stops the goroutines and closes the
// link.
func OpenInteractive(backend string, cl *cluster.Cluster, plan *faults.Plan, cfg Config, tel *telemetry.RunTelemetry) (*Interactive, error) {
	mkLink, err := newLink(backend)
	if err != nil {
		return nil, err
	}
	rt, err := newRuntime(cl, plan, cfg, tel, mkLink)
	if err != nil {
		return nil, err
	}
	// Interactive sessions have no fixed value size, so the sampler skips
	// the paper-bound gauges and publishes the raw storage watermarks.
	rt.startTelemetry(cl, workload.Spec{}, nil)
	rt.start()
	return &Interactive{rt: rt}, nil
}

// RunOp runs one operation at the client to completion and returns its
// output (the read value; nil for writes). It blocks until the response,
// the per-op timeout, or ctx cancellation — whichever comes first. On
// timeout or cancellation the operation is abandoned: pending reports that
// it was genuinely invoked and may still take effect (its caller must keep
// it pending in any checked history and use the client no further).
func (s *Interactive) RunOp(ctx context.Context, client ioa.NodeID, inv ioa.Invocation) (out []byte, pending bool, err error) {
	if s.closed.Load() {
		return nil, false, fmt.Errorf("runtime: session closed")
	}
	if ns := s.rt.node(client); ns == nil || !ns.client {
		return nil, false, fmt.Errorf("runtime: node %d is not a client of this deployment", client)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	out, started, ok := s.rt.invokeAsync(client, inv).wait(ctx, s.rt.cfg.OpTimeout)
	if !ok {
		if !started {
			// The automaton never saw the invocation: the client is
			// untouched and stays usable, and the op must NOT appear in any
			// checked history.
			return nil, false, fmt.Errorf("runtime: operation at client %d was dropped before it started (its mailbox stayed full past OpTimeout, or the node crashed with the invocation still queued)", client)
		}
		if err := ctx.Err(); err != nil {
			return nil, true, fmt.Errorf("runtime: operation at client %d abandoned: %w", client, err)
		}
		return nil, true, fmt.Errorf("runtime: operation at client %d timed out after %v (pending)", client, s.rt.cfg.OpTimeout)
	}
	return out, false, nil
}

// Storage snapshots the per-server storage maxima observed so far. Safe to
// call while operations are in flight: the counters are atomics maintained
// by the node goroutines.
func (s *Interactive) Storage() ioa.StorageReport {
	return s.rt.storageReport()
}

// FaultStats snapshots the drop/delay/hold events applied so far.
func (s *Interactive) FaultStats() ioa.FaultStats {
	return s.rt.faultStats()
}

// Close stops the node goroutines and closes the link. Idempotent.
func (s *Interactive) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.rt.stop()
	return nil
}
