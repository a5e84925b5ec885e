// Package session is the handle layer behind shmem.Open: one Store that
// owns a sharded set of register deployments and exposes, on either
// execution backend,
//
//   - interactive, context-aware client operations (Put/Get) routed through
//     workload.KeyShard to per-shard deployments,
//   - batch experiments (RunWorkload, RunMulti) over fresh clusters of the
//     same configuration,
//   - a unified metrics snapshot (per-shard storage reports, fault stats,
//     op counts, live latency percentiles), and
//   - consistency checking over the accumulated interactive history.
//
// The store keeps its own per-shard operation record: every interactive
// operation runs as a ticket on the shard's ioa.OpFeed, whose clock stamps
// the invocation when the ticket is issued and the response when the result
// is observed, so the recorded intervals express exactly the real-time
// precedence the caller observed — the relation the consistency checkers
// test. Settled operations stream from the feed into the shard's
// consistency.OnlineChecker, built for the condition the shard's algorithm
// guarantees (atomic or regular), which retires provably-correct prefixes as
// the store runs: CheckConsistency reads off the standing verdict, and the
// shard's memory is bounded by the checker's window, not by the operations
// it has served (Config.HistoryCap bounds what a shard that never leaves a
// clean cut holds, see ErrHistoryFull). The checker's window is the only
// record: the simulator's kernel keeps just the pending operations.
// Operations abandoned by a timeout or a cancelled context stay pending
// (their effects may still land), which is the standard completion
// semantics both conditions' checkers already cover.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/ioa"
	"repro/internal/store"
	"repro/internal/workload"
)

// latencyWindow is how many of a shard's most recent completed operations
// Metrics' latency percentiles cover.
const latencyWindow = 1 << 16

// ErrHistoryFull reports an interactive operation refused because the
// shard's unretired operations reached Config.HistoryCap. The operation never
// started (the register is untouched); branch with errors.Is.
var ErrHistoryFull = errors.New("session: interactive history at capacity")

// shard is one register deployment plus the session state layered on it.
type shard struct {
	index     int
	cl        *cluster.Cluster
	algorithm string
	condition string
	faultSpec string
	sess      store.ShardSession

	mu sync.Mutex
	// feed stamps and orders the shard's interactive operations; settled ones
	// stream into checker, which retires provably-correct prefixes.
	feed    *ioa.OpFeed
	checker *consistency.OnlineChecker
	// recorded counts operations accepted into the feed and not voided.
	recorded int
	// latencies is a ring of the last latencyWindow completed operations'
	// durations, grown on demand; latNext is the slot the next one takes.
	latencies  []time.Duration
	latNext    int
	writes     int
	reads      int
	nextWriter int
	nextReader int

	// clientLocks serialize operations per client: a register client holds
	// one operation at a time, and the invoke stamp must be taken only once
	// the client is actually free — otherwise two ops at one client record
	// overlapping intervals and the history is malformed.
	clientLocks map[ioa.NodeID]*sync.Mutex
	// retired marks clients whose operation was abandoned (timeout, budget
	// exhaustion, cancellation) while genuinely invoked. The abandoned op
	// must stay the client's last recorded one — on the simulator a later
	// op's FairRun can quietly complete it inside the kernel, and invoking
	// the client again would append after a pending op, malforming the
	// history; on live and net its automaton is stuck mid-protocol and a
	// later op would only queue behind it for another OpTimeout — so retired
	// clients refuse further session operations, on every backend. This is
	// the only retirement gate: the backends run whatever they are handed.
	retired map[ioa.NodeID]bool
}

// Store is one handle over a sharded register store: interactive client
// operations, batch experiments, metrics and consistency checking — on
// either backend. Open builds it; Close releases it (live node goroutines).
// All methods are safe for concurrent use.
type Store struct {
	cfg     store.Config // resolved once at Open; nothing downstream re-defaults it
	backend store.Backend
	shards  []*shard
	closed  atomic.Bool
}

// Open resolves the configuration — every default filled, everything
// validated, once — deploys its shards on its backend and returns the store
// handle. Every shard's cluster and fault plan are built eagerly, so
// configuration errors (unknown algorithm or backend, a non-positive cluster
// shape, malformed or unbuildable fault specs, invalid client counts) surface
// here, not mid-operation.
func Open(cfg store.Config) (*Store, error) {
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	backend, err := store.BackendByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	// Fault plans reuse the multi-key workload's per-shard derivation, so a
	// store opened with seed s injects exactly the faults a batch RunMulti
	// with seed s would.
	planSpec := workload.MultiSpec{Seed: cfg.Seed, Faults: cfg.Faults}
	// Interactive shards deploy with one client of a role unless told more.
	writers, readers := max(cfg.Writers, 1), max(cfg.Readers, 1)
	st := &Store{cfg: cfg, backend: backend}
	for i := 0; i < cfg.Shards; i++ {
		alg := cfg.Algorithms[i%len(cfg.Algorithms)]
		cl, cond, err := store.DeployAlgorithmSized(alg, cfg.Servers, cfg.F, writers, readers)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("session: shard %d (%s): %w", i, alg, err)
		}
		plan, err := planSpec.ShardFaultPlan(i, cfg.Servers, cfg.F)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("session: shard %d: %w", i, err)
		}
		opts := cfg.Shard(i, true)
		opts.Plan = plan
		sess, err := backend.OpenShard(cl, opts)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("session: shard %d (%s, backend %s): %w", i, alg, backend.Name(), err)
		}
		locks := make(map[ioa.NodeID]*sync.Mutex, len(cl.Writers)+len(cl.Readers))
		for _, ids := range [][]ioa.NodeID{cl.Writers, cl.Readers} {
			for _, id := range ids {
				locks[id] = &sync.Mutex{}
			}
		}
		checker := consistency.NewOnlineChecker(nil, consistency.WithWindowOps(cfg.OnlineWindow), consistency.WithCondition(cond))
		st.shards = append(st.shards, &shard{
			index:       i,
			cl:          cl,
			algorithm:   alg,
			condition:   cond,
			faultSpec:   planSpec.ShardFault(i),
			sess:        sess,
			feed:        ioa.NewOpFeed(checker),
			checker:     checker,
			clientLocks: locks,
			retired:     make(map[ioa.NodeID]bool),
		})
	}
	return st, nil
}

// Config returns the resolved configuration the store runs: every default
// filled in at Open, and the value every later call reads unchanged.
func (s *Store) Config() store.Config { return s.cfg }

// Backend returns the execution backend's name.
func (s *Store) Backend() string { return s.backend.Name() }

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// KeyShard returns the shard a key routes to.
func (s *Store) KeyShard(key int) int { return workload.KeyShard(key, len(s.shards)) }

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("session: store is closed")

func (s *Store) shardFor(key int) (*shard, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return s.shards[workload.KeyShard(key, len(s.shards))], nil
}

// Put writes value under key, routing to the key's shard and rotating
// through the shard's writer clients. Writes that should pass the atomicity
// checker must use values distinct from every other write to the same shard
// (MakeValue produces such values).
func (s *Store) Put(ctx context.Context, key int, value []byte) error {
	sh, err := s.shardFor(key)
	if err != nil {
		return err
	}
	client, err := sh.pickClient(sh.cl.Writers, &sh.nextWriter, "writer")
	if err != nil {
		return err
	}
	_, err = s.runOp(ctx, sh, client, ioa.Invocation{Kind: ioa.OpWrite, Value: value})
	return err
}

// PutAs writes value under key at the shard's writer with the given index.
func (s *Store) PutAs(ctx context.Context, writer, key int, value []byte) error {
	sh, err := s.shardFor(key)
	if err != nil {
		return err
	}
	if writer < 0 || writer >= len(sh.cl.Writers) {
		return fmt.Errorf("session: writer index %d out of range [0,%d) on shard %d", writer, len(sh.cl.Writers), sh.index)
	}
	_, err = s.runOp(ctx, sh, sh.cl.Writers[writer], ioa.Invocation{Kind: ioa.OpWrite, Value: value})
	return err
}

// Get reads the register serving key, routing to the key's shard and
// rotating through the shard's reader clients.
func (s *Store) Get(ctx context.Context, key int) ([]byte, error) {
	sh, err := s.shardFor(key)
	if err != nil {
		return nil, err
	}
	client, err := sh.pickClient(sh.cl.Readers, &sh.nextReader, "reader")
	if err != nil {
		return nil, err
	}
	return s.runOp(ctx, sh, client, ioa.Invocation{Kind: ioa.OpRead})
}

// GetAs reads the register serving key at the shard's reader with the given
// index.
func (s *Store) GetAs(ctx context.Context, reader, key int) ([]byte, error) {
	sh, err := s.shardFor(key)
	if err != nil {
		return nil, err
	}
	if reader < 0 || reader >= len(sh.cl.Readers) {
		return nil, fmt.Errorf("session: reader index %d out of range [0,%d) on shard %d", reader, len(sh.cl.Readers), sh.index)
	}
	return s.runOp(ctx, sh, sh.cl.Readers[reader], ioa.Invocation{Kind: ioa.OpRead})
}

// pickClient rotates through the shard's clients of one role, skipping
// retired ones. Callers must not hold sh.mu.
func (sh *shard) pickClient(ids []ioa.NodeID, next *int, role string) (ioa.NodeID, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for range ids {
		id := ids[*next]
		*next = (*next + 1) % len(ids)
		if !sh.retired[id] {
			return id, nil
		}
	}
	return 0, fmt.Errorf("session: shard %d: every %s client is retired after abandoned operations", sh.index, role)
}

// retainedLocked is what the shard holds against the HistoryCap bound:
// everything recorded minus the prefix the checker retired and reclaimed.
// Callers hold sh.mu.
func (sh *shard) retainedLocked() int {
	return sh.recorded - int(sh.checker.OpsVerified())
}

// runOp opens a ticket for the operation on the shard's feed, executes it on
// the backend session, and settles the ticket with the outcome. The feed's
// clock stamps the invocation when the ticket is issued — before the backend
// sees the operation — and the response when its completion is observed, so
// recorded precedence is real precedence. The settled prefix streams into
// the shard's sink as tickets resolve.
func (s *Store) runOp(ctx context.Context, sh *shard, client ioa.NodeID, inv ioa.Invocation) ([]byte, error) {
	lk := sh.clientLocks[client]
	lk.Lock()
	defer lk.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh.mu.Lock()
	if sh.retired[client] {
		sh.mu.Unlock()
		return nil, fmt.Errorf("session: shard %d: client %d is retired after an abandoned operation", sh.index, client)
	}
	if hcap := s.cfg.HistoryCap; sh.retainedLocked() >= hcap {
		sh.mu.Unlock()
		return nil, fmt.Errorf("session: shard %d: %w (cap %d; check and reopen, or raise Config.HistoryCap)", sh.index, ErrHistoryFull, hcap)
	}
	tk := sh.feed.Begin(client, inv.Kind, inv.Value)
	sh.recorded++
	if inv.Kind == ioa.OpWrite {
		sh.writes++
	} else {
		sh.reads++
	}
	sh.mu.Unlock()

	start := time.Now()
	out, pending, err := sh.sess.RunOp(ctx, client, inv)
	lat := time.Since(start)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err != nil {
		if pending {
			// The abandoned op must stay the client's last recorded one, so
			// the client accepts no further session operations; its ticket
			// stays permanently pending in the record.
			sh.retired[client] = true
			tk.Abandon()
		} else {
			// The operation never started; void the ticket so no history
			// slot remains, and drop its op count.
			tk.Void()
			sh.recorded--
			if inv.Kind == ioa.OpWrite {
				sh.writes--
			} else {
				sh.reads--
			}
		}
		return nil, fmt.Errorf("session: shard %d: %w", sh.index, err)
	}
	tk.Complete(out)
	sh.recordLatency(lat)
	return out, nil
}

// recordLatency puts lat in the ring, over the oldest entry once the ring is
// full. Callers hold sh.mu.
func (sh *shard) recordLatency(lat time.Duration) {
	if len(sh.latencies) < latencyWindow {
		sh.latencies = append(sh.latencies, lat)
	} else {
		sh.latencies[sh.latNext] = lat
	}
	sh.latNext = (sh.latNext + 1) % latencyWindow
}

// CheckConsistency verifies every shard's accumulated interactive history
// against its algorithm's consistency condition ("atomic" or "regular").
// Every shard already verified its retired prefix online as operations
// settled, so only the residual window plus the feed's held tail is checked
// here — the call stays cheap no matter how many operations have run.
// Operations abandoned by timeouts stay pending and are checked under the
// standard completion semantics. It returns the lowest-indexed failing
// shard's verdict, or nil when every shard passes. Safe to call mid-run: the
// verdict covers every operation settled so far, with in-flight ones
// treated as pending.
func (s *Store) CheckConsistency() error {
	if s.closed.Load() {
		return ErrClosed
	}
	for _, sh := range s.shards {
		// The feed's held tail (ops invoked after the last released one,
		// open tickets appearing pending) joins the residual window, so a
		// settled read of an in-flight write's value is not mistaken for a
		// read of a never-written value.
		sh.mu.Lock()
		extra := sh.feed.Snapshot()
		sh.mu.Unlock()
		if err := sh.checker.Result(extra...); err != nil {
			return fmt.Errorf("session: shard %d (%s, %s): %w", sh.index, sh.algorithm, sh.condition, err)
		}
	}
	return nil
}

// ShardMetrics is one shard's slice of a Metrics snapshot.
type ShardMetrics struct {
	// Shard, Algorithm, Condition and FaultSpec identify the deployment.
	Shard     int
	Algorithm string
	Condition string
	FaultSpec string
	// Writes and Reads count the shard's interactive operations (started
	// ones; abandoned operations are counted until they are known to have
	// never begun). PendingOps counts those not yet (or never) completed.
	Writes     int
	Reads      int
	PendingOps int
	// OpsVerified counts operations the online checker has retired as
	// provably correct under the shard's condition, and WindowLag is how
	// many settled operations still await retirement. RetainedOps is what
	// the shard currently holds against Config.HistoryCap.
	OpsVerified int64
	WindowLag   int
	RetainedOps int
	// Storage is the shard's per-server storage high-water report.
	Storage ioa.StorageReport
	// Faults aggregates the shard's injected fault events.
	Faults ioa.FaultStats
}

// Metrics is a unified snapshot of the store: per-shard storage reports and
// fault stats, interactive op counts, and latency percentiles. Safe to take
// while operations are in flight.
type Metrics struct {
	// Backend names the execution substrate.
	Backend string
	// PerShard holds every shard's snapshot, ascending by shard index.
	PerShard []ShardMetrics
	// TotalWrites, TotalReads and PendingOps sum the shard op counts.
	TotalWrites int
	TotalReads  int
	PendingOps  int
	// OpsVerified sums the shards' online-checker retirement counts and
	// MaxWindowLag is the largest residual window across shards.
	OpsVerified  int64
	MaxWindowLag int
	// AggregateMaxTotalBits sums the per-shard storage high-water marks and
	// MaxServerBits is the largest single-server maximum across shards.
	AggregateMaxTotalBits int
	MaxServerBits         int
	// Faults sums the per-shard fault event counts.
	Faults ioa.FaultStats
	// LatencyP50 and LatencyP99 are nearest-rank percentiles over the
	// wall-clock durations of each shard's most recent 65,536 completed
	// interactive operations (a fixed window: a store's memory and the cost
	// of Metrics do not grow with the operations it has served). On the
	// simulator these measure host speed, not the algorithm; on the live
	// backend they are the service's real latencies.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
}

// Metrics snapshots the store.
func (s *Store) Metrics() Metrics {
	m := Metrics{Backend: s.backend.Name()}
	var lats []time.Duration
	for _, sh := range s.shards {
		sh.mu.Lock()
		sm := ShardMetrics{
			Shard:       sh.index,
			Algorithm:   sh.algorithm,
			Condition:   sh.condition,
			FaultSpec:   sh.faultSpec,
			Writes:      sh.writes,
			Reads:       sh.reads,
			PendingOps:  sh.feed.Pending(),
			OpsVerified: sh.checker.OpsVerified(),
			WindowLag:   sh.checker.WindowLag(),
			RetainedOps: sh.retainedLocked(),
			Storage:     sh.sess.Storage(),
			Faults:      sh.sess.FaultStats(),
		}
		lats = append(lats, sh.latencies...)
		sh.mu.Unlock()
		m.PerShard = append(m.PerShard, sm)
		m.TotalWrites += sm.Writes
		m.TotalReads += sm.Reads
		m.PendingOps += sm.PendingOps
		m.OpsVerified += sm.OpsVerified
		if sm.WindowLag > m.MaxWindowLag {
			m.MaxWindowLag = sm.WindowLag
		}
		m.AggregateMaxTotalBits += sm.Storage.MaxTotalBits
		if sm.Storage.MaxServerBits > m.MaxServerBits {
			m.MaxServerBits = sm.Storage.MaxServerBits
		}
		m.Faults.Add(sm.Faults)
	}
	if len(lats) > 0 {
		m.LatencyP50 = workload.Percentile(lats, 0.50)
		m.LatencyP99 = workload.Percentile(lats, 0.99)
	}
	return m
}

// RunWorkload runs one seeded single-register workload on a fresh cluster
// of this store's configuration (first algorithm, same n/f and client
// counts, same backend). The store's first fault scenario is
// installed unless the spec carries its own plan; the interactive shards
// are untouched. The result's history is not consistency-checked; use
// Result.CheckConsistency with Condition().
func (s *Store) RunWorkload(spec workload.Spec) (*workload.Result, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	alg := s.cfg.Algorithms[0]
	cl, _, err := store.DeployShard(alg, s.cfg.Servers, s.cfg.F, spec.TargetNu, s.cfg.Writers, s.cfg.Readers)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if spec.FaultPlan == nil {
		planSpec := workload.MultiSpec{Seed: s.cfg.Seed, Faults: s.cfg.Faults}
		plan, err := planSpec.ShardFaultPlan(0, s.cfg.Servers, s.cfg.F)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		spec.FaultPlan = plan
	}
	return s.backend.RunShard(cl, spec, s.cfg.Shard(0, false))
}

// Condition returns the consistency condition the store's first algorithm
// guarantees — the condition to check RunWorkload results against.
func (s *Store) Condition() string {
	return s.shards[0].condition
}

// RunMulti partitions a multi-key workload across this store's shard count
// and runs it on fresh clusters through the parallel store engine. The
// store's algorithm mix, backend, client counts and fault scenarios apply
// (the spec's own Faults win when set); the interactive shards are untouched.
// Results on the simulator are byte-identical across worker counts.
func (s *Store) RunMulti(m workload.MultiSpec) (*store.Result, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	return store.Run(s.cfg, m)
}

// Close releases every shard (stopping live node goroutines). Idempotent;
// operations after Close fail with ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var first error
	for _, sh := range s.shards {
		if sh == nil || sh.sess == nil {
			continue
		}
		if err := sh.sess.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
