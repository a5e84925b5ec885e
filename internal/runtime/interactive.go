package runtime

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/workload"
)

// Interactive is a running deployment accepting one-at-a-time client
// operations: the node goroutines (and, on the TCP link, their sockets) stay
// up between calls, so a sequence of Invoke calls interleaves with other
// clients' operations exactly as a real service would. It is the runtime's
// single-op execution path — RunConfig remains for batch experiments.
//
// Invoke is safe for concurrent use across clients; operations at the same
// client are serialized (a register client automaton holds one operation at
// a time). A client whose operation times out is retired: its automaton is
// stuck mid-protocol waiting on lost messages, so later Invokes on it fail
// fast with ErrClientRetired rather than corrupting the protocol state.
type Interactive struct {
	rt            *runtime
	stopTelemetry func()

	mu     sync.Mutex
	perCl  map[ioa.NodeID]*clientGate
	closed bool
}

// clientGate serializes one client's operations and remembers retirement.
type clientGate struct {
	mu      sync.Mutex
	retired bool
}

// ErrClientRetired marks a client whose earlier operation timed out:
// the automaton is mid-protocol and cannot accept another invocation.
var ErrClientRetired = fmt.Errorf("runtime: client retired after a timed-out operation")

// OpenInteractive clones the cluster's automata, attaches them to the named
// backend's link, starts the node goroutines and returns a session ready for
// Invoke. The fault plan applies in full, exactly as in RunConfig: drop/delay
// rules and outage windows at every send, scheduled crash/recovery on the
// runtime's wall-clock step mapping. Close stops the goroutines and closes
// the link.
func OpenInteractive(backend string, cl *cluster.Cluster, plan *faults.Plan, cfg Config) (*Interactive, error) {
	mkLink, err := newLink(backend)
	if err != nil {
		return nil, err
	}
	rt, err := newRuntime(cl, plan, cfg, mkLink)
	if err != nil {
		return nil, err
	}
	s := &Interactive{rt: rt, perCl: make(map[ioa.NodeID]*clientGate)}
	for _, ids := range [][]ioa.NodeID{cl.Writers, cl.Readers} {
		for _, id := range ids {
			s.perCl[id] = &clientGate{}
		}
	}
	// Interactive sessions have no fixed value size, so the sampler skips
	// the paper-bound gauges and publishes the raw storage watermarks.
	s.stopTelemetry = rt.startTelemetry(cl, workload.Spec{})
	rt.start()
	return s, nil
}

// Invoke runs one operation at the client to completion and returns its
// output (the read value; nil for writes). It blocks until the response,
// the per-op timeout, or ctx cancellation — whichever comes first. On
// timeout or cancellation the operation is abandoned: pending reports that
// it was genuinely invoked and may still take effect (its caller must keep
// it pending in any checked history), and the client is retired.
func (s *Interactive) Invoke(ctx context.Context, client ioa.NodeID, inv ioa.Invocation) (out []byte, pending bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("runtime: session closed")
	}
	gate := s.perCl[client]
	s.mu.Unlock()
	if gate == nil {
		return nil, false, fmt.Errorf("runtime: node %d is not a client of this deployment", client)
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.retired {
		return nil, false, fmt.Errorf("client %d: %w", client, ErrClientRetired)
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
		gate.retired = true
		if err := ctx.Err(); err != nil {
			return nil, true, fmt.Errorf("runtime: operation at client %d abandoned: %w", client, err)
		}
		return nil, true, fmt.Errorf("runtime: operation at client %d timed out after %v (pending; client retired)", client, s.rt.cfg.OpTimeout)
	}
	return out, false, nil
}

// Retired reports whether the client has been retired by a timed-out
// operation.
func (s *Interactive) Retired(client ioa.NodeID) bool {
	s.mu.Lock()
	gate := s.perCl[client]
	s.mu.Unlock()
	if gate == nil {
		return false
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	return gate.retired
}

// Storage snapshots the per-server storage maxima observed so far. Safe to
// call while operations are in flight: the counters are atomics maintained
// by the node goroutines.
func (s *Interactive) Storage(cl *cluster.Cluster) ioa.StorageReport {
	return s.rt.storageReport(cl)
}

// FaultStats snapshots the drop/delay/hold events applied so far.
func (s *Interactive) FaultStats() ioa.FaultStats {
	return s.rt.faultStats()
}

// Close stops the node goroutines and closes the link. Idempotent.
func (s *Interactive) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.rt.stop()
	s.stopTelemetry()
	return nil
}
