package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Backend is the execution substrate a shard runs on. The node automata are
// identical either way — DeployShard builds the same cluster — and each
// backend drives them through the same workload.Spec, returning the shared
// result shape whose history feeds the same consistency checkers.
//
// A backend offers two execution paths:
//
//   - RunShard drives a whole seeded workload to completion — the batch
//     path every experiment uses; and
//   - OpenShard keeps the shard's deployment running and returns a
//     ShardSession whose RunOp executes individual client operations
//     interactively — the path session.Store routes Put/Get through.
//
// The implementations differ in their guarantees (DESIGN.md section 8): the
// simulator is the determinism oracle (same seed, byte-identical
// fingerprints at any worker count), while the wall-clock runtime behind
// "live" and "net" runs every node on its own goroutine and measures real
// concurrency — its histories differ run to run, and only the safety
// verdicts are comparable.
type Backend interface {
	// Name returns the backend's selector string.
	Name() string
	// RunShard executes one shard's workload on the cluster.
	RunShard(cl *cluster.Cluster, spec workload.Spec, opts ShardOptions) (*workload.Result, error)
	// OpenShard prepares the cluster for interactive operations and returns
	// the session that executes them.
	OpenShard(cl *cluster.Cluster, opts ShardOptions) (ShardSession, error)
}

// ShardOptions carries the per-shard tuning a backend needs: the fault plan,
// the simulator's per-operation step budget, and the wall-clock runtime's
// configuration, history sink and telemetry handle. Config.Shard derives it
// from the resolved store config.
type ShardOptions struct {
	// Plan is the shard's fault plan (nil = fault-free). RunShard callers
	// install the plan on the spec instead; OpenShard reads it from here.
	Plan *faults.Plan
	// StepBudget bounds the deliveries a single interactive operation may
	// consume on the simulator. The live and net runtimes bound operations
	// by wall-clock timeout instead.
	StepBudget int
	// Runtime tunes the live and net backends' node runtime (Config.Net).
	// Ignored on the simulator, like the two fields below.
	Runtime runtime.Config
	// Sink receives a batch run's history as it happens (runtime.RunConfig's
	// sink): the shard's online checker under Config.OnlineCheck, nil
	// otherwise. OpenShard does not read it.
	Sink ioa.HistorySink
	// Telemetry is the shard's metrics handle (nil = off).
	Telemetry *telemetry.RunTelemetry
}

// ShardSession executes interactive operations against one shard's running
// deployment. Sessions are safe for concurrent use; the simulator serializes
// operations internally (one discrete schedule per shard), while the live
// backend runs operations at distinct clients genuinely in parallel.
type ShardSession interface {
	// RunOp executes one operation at the client to completion and returns
	// its output (the read value; nil for writes). On failure, pending
	// reports whether the operation was genuinely invoked and may still
	// take effect — such operations must stay pending in any checked
	// history. A pending==false error means the operation never started.
	RunOp(ctx context.Context, client ioa.NodeID, inv ioa.Invocation) (out []byte, pending bool, err error)
	// Storage snapshots the shard's per-server storage maxima so far.
	Storage() ioa.StorageReport
	// FaultStats snapshots the fault events applied so far.
	FaultStats() ioa.FaultStats
	// Close releases the shard's resources (live node goroutines).
	Close() error
}

// ErrStepBudget reports that an interactive simulator operation exhausted
// its delivery budget before completing. Callers can widen the budget with
// a larger Config.StepBudget.
var ErrStepBudget = errors.New("store: step budget exhausted before the operation completed")

// Backend selector names accepted by Config.Backend.
const (
	BackendSim  = "sim"
	BackendLive = runtime.BackendLive
	BackendNet  = runtime.BackendNet
)

// Backends lists the selectable backend names.
func Backends() []string { return []string{BackendSim, BackendLive, BackendNet} }

// ErrUnknownBackend reports a backend selector naming no registered backend.
// Every selection surface — BackendByName, Config validation,
// shmem.WithBackend, the CLI -backend flag — funnels through it, so callers
// branch with errors.Is(err, ErrUnknownBackend) instead of matching message
// text. The message always lists the valid names.
var ErrUnknownBackend = errors.New("unknown backend")

// BackendByName returns the named backend; "" selects the simulator. An
// unrecognized name wraps ErrUnknownBackend.
func BackendByName(name string) (Backend, error) {
	switch name {
	case "", BackendSim:
		return simBackend{}, nil
	case BackendLive, BackendNet:
		return runtimeBackend{name}, nil
	default:
		return nil, fmt.Errorf("store: %w %q (known: %s)", ErrUnknownBackend, name, strings.Join(Backends(), ", "))
	}
}

// simBackend runs shards on the deterministic ioa simulator.
type simBackend struct{}

func (simBackend) Name() string { return BackendSim }

func (simBackend) RunShard(cl *cluster.Cluster, spec workload.Spec, _ ShardOptions) (*workload.Result, error) {
	return workload.Run(cl, spec)
}

func (simBackend) OpenShard(cl *cluster.Cluster, opts ShardOptions) (ShardSession, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if opts.Plan != nil {
		if err := opts.Plan.Validate(); err != nil {
			return nil, err
		}
		cl.Sys.SetFaultPlan(newLostToDown(opts.Plan))
	}
	return &simSession{cl: cl, budget: opts.StepBudget}, nil
}

// lostToDown is a standing shard's fault plan: the shard's own, except that
// a message sent to a node the plan crashes with no recovery after is
// dropped at send time (and counted in FaultStats.Drops) instead of queued.
// The node never takes another step, so the message can never be received,
// and on a shard that serves operations indefinitely the queue into it would
// hold a copy of every operation's messages. Batch runs keep the plain plan:
// their channels end with the run, and their schedules are fingerprinted.
type lostToDown struct {
	*faults.Plan
	down map[ioa.NodeID]int // node -> step from which it stays crashed
}

func newLostToDown(p *faults.Plan) lostToDown {
	d := lostToDown{Plan: p, down: make(map[ioa.NodeID]int)}
	for _, ev := range p.NodeEvents() { // ascending by step
		if ev.Recover {
			delete(d.down, ev.Node)
		} else {
			d.down[ev.Node] = ev.Step
		}
	}
	return d
}

func (d lostToDown) MessageFate(from, to ioa.NodeID, seq uint64, step int) (bool, int) {
	// A crash due at this step is applied once the step's sends are queued,
	// so a message sent now would never be delivered either.
	if t, ok := d.down[to]; ok && step >= t {
		return true, 0
	}
	return d.Plan.MessageFate(from, to, seq, step)
}

// simSession drives interactive operations on a shard's simulated system.
// One mutex serializes operations: the simulator is a single discrete
// schedule, so concurrency within a shard is meaningless there. The session
// layer records every operation itself, so the kernel's history keeps only
// what is still pending (History.Take): a standing shard's memory does not
// grow with the operations it serves.
type simSession struct {
	mu     sync.Mutex
	cl     *cluster.Cluster
	budget int
}

// fairRunChunk bounds one FairRun slice of an interactive operation, so the
// session can observe context cancellation between slices without giving
// the scheduler a chance to starve anything (FairRun resumes exactly where
// it stopped).
const fairRunChunk = 1 << 16

func (s *simSession) RunOp(ctx context.Context, client ioa.NodeID, inv ioa.Invocation) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	id, err := s.cl.Sys.Invoke(client, inv)
	if err != nil {
		return nil, false, err
	}
	for left := s.budget; left > 0; {
		step := fairRunChunk
		if step > left {
			step = left
		}
		switch err := s.cl.Sys.FairRun(step, ioa.OpDone(id)); {
		case err == nil:
			op, err := s.cl.Sys.History().Take(id)
			if err != nil {
				return nil, true, err
			}
			return op.Output, false, nil
		case errors.Is(err, ioa.ErrStepLimit):
			left -= step
			if cerr := ctx.Err(); cerr != nil {
				return nil, true, fmt.Errorf("store: op %v at client %d abandoned: %w", inv.Kind, client, cerr)
			}
		case errors.Is(err, ioa.ErrQuiescent):
			return nil, true, fmt.Errorf("store: op %v at client %d cannot complete (system quiescent under faults): %w", inv.Kind, client, err)
		default:
			return nil, true, fmt.Errorf("store: op %v at client %d: %w", inv.Kind, client, err)
		}
	}
	return nil, true, fmt.Errorf("store: op %v at client %d: %w (budget %d deliveries)", inv.Kind, client, ErrStepBudget, s.budget)
}

func (s *simSession) Storage() ioa.StorageReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cl.Sys.Storage()
}

func (s *simSession) FaultStats() ioa.FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cl.Sys.FaultStats()
}

func (s *simSession) Close() error { return nil }

// validateWorkload eagerly rejects multi-key workloads the resolved config
// cannot run, so the error surfaces before any shard starts rather than from
// inside one mid-run. Every fault scenario class runs on every backend; what
// the live and net backends reject is the random crash budget (it draws crash
// points from the simulator's schedule). The spec's shape itself is validated
// by Partition.
func validateWorkload(c Config, m workload.MultiSpec) error {
	if m.Crashes != 0 && c.Backend != BackendSim {
		return fmt.Errorf("store: %s backend: %w: the random crash budget draws crash points from the simulator's schedule; use a crash scenario instead (got Crashes=%d)",
			c.Backend, faults.ErrUnsupported, m.Crashes)
	}
	if m.Crashes > c.F {
		return fmt.Errorf("store: per-shard crash budget %d exceeds f=%d", m.Crashes, c.F)
	}
	return validateFaults(c, m.Faults)
}

// runtimeBackend runs shards on the wall-clock node runtime; its name picks
// the link — in-process channels for "live", one loopback TCP endpoint per
// node (wire codec, fault rules applied before the socket write) for "net".
type runtimeBackend struct{ name string }

func (b runtimeBackend) Name() string { return b.name }

func (b runtimeBackend) RunShard(cl *cluster.Cluster, spec workload.Spec, opts ShardOptions) (*workload.Result, error) {
	return runtime.RunConfig(b.name, cl, spec, opts.Runtime, opts.Sink, opts.Telemetry)
}

func (b runtimeBackend) OpenShard(cl *cluster.Cluster, opts ShardOptions) (ShardSession, error) {
	in, err := runtime.OpenInteractive(b.name, cl, opts.Plan, opts.Runtime, opts.Telemetry)
	if err != nil {
		return nil, err // not a typed-nil *Interactive in the interface
	}
	return in, nil
}
