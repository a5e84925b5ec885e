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
// test. Settled operations stream from the feed into the shard's history
// sink: a batch ioa.History by default (bounded by Config.HistoryCap, see
// ErrHistoryFull), or a consistency.OnlineChecker when Config.OnlineCheck is
// set — then provably-linearized prefixes are retired as the store runs and
// CheckConsistency reads off the standing verdict instead of replaying the
// full history. Operations abandoned by a timeout or a cancelled context
// stay pending (their effects may still land), which is the standard
// completion semantics the atomicity checker already covers.
package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config names everything a Store needs: the algorithm mix, the per-shard
// cluster shape (n, f), the shard count, the execution backend, the fault
// scenarios, and the interactive tuning. The zero value opens a one-shard
// CAS store of 5 servers tolerating 1 crash on the simulator.
type Config struct {
	// Algorithms assigns an algorithm per shard, cycling when shorter than
	// Shards (shard i runs Algorithms[i mod len]), exactly as
	// store.Options.Algorithms does. Empty defaults to CAS everywhere.
	Algorithms []string
	// Servers and F shape every shard's cluster (N servers, f tolerated
	// crashes). Servers 0 defaults to 5 servers tolerating 1 crash.
	Servers int
	F       int
	// Shards is the number of independent register deployments (default 1).
	// Keys are routed to shards by workload.KeyShard.
	Shards int
	// Backend selects the execution substrate: store.BackendSim (default,
	// the deterministic simulator), store.BackendLive (the concurrent
	// goroutine-per-node runtime) or store.BackendNet (every node on its own
	// TCP socket over the real loopback network).
	Backend string
	// Faults assigns a fault scenario spec per shard, cycling like
	// Algorithms; "" or "none" leaves a shard fault-free. Specs follow the
	// internal/faults.Parse grammar and every scenario class runs on every
	// backend — the live and net runtimes execute outage windows and
	// crash/recovery schedules against a wall-clock step mapping (see
	// faults.WallClock). Malformed specs are rejected at Open.
	Faults []string
	// Writers and Readers are the per-shard client counts. Zero means the
	// defaults: one writer and one reader for interactive shards, and the
	// per-algorithm DeployAlgorithm shapes for batch runs (RunMulti,
	// RunWorkload). Single-writer algorithms reject Writers > 1.
	Writers int
	Readers int
	// StepBudget bounds the deliveries one interactive simulator operation
	// may consume (0 = workload.DefaultStepBudget). Exhausting it returns
	// store.ErrStepBudget. Ignored on the live and net backends, which
	// bound operations by their OpTimeout instead.
	StepBudget int
	// Live and Net tune the node runtime for the live and the net backend
	// respectively — one type, and only the selected backend's value is
	// read; the zero value selects the defaults (ephemeral loopback ports on
	// net, 5s op timeout).
	Live runtime.Config
	Net  runtime.Config
	// Seed derives each shard's fault-plan decision stream (and seeds batch
	// runs through RunWorkload). Same seed, same injected faults.
	Seed int64
	// Workers bounds the goroutines RunMulti uses (0 = GOMAXPROCS).
	Workers int
	// Pipeline sets the per-client operation pipeline depth the live and net
	// batch drivers use (0 keeps each runtime's default of 1): each driver
	// keeps up to this many operations in flight at one client, with the
	// node starting each only after its predecessor responds, so per-client
	// program order is preserved. It is the default for the selected
	// runtime config's own Pipeline; ignored on the simulator and for
	// interactive Put/Get, which stay one-op-per-client.
	Pipeline int
	// SkipCheck disables batch runs' per-shard consistency checking
	// (store.Options.SkipCheck), to measure unchecked throughput; only the
	// regularity checks are still quadratic. Interactive CheckConsistency is
	// unaffected.
	SkipCheck bool
	// OnlineCheck streams every settled operation into a windowed online
	// atomicity checker instead of accumulating a batch history. Interactive
	// atomic-condition shards then retire provably-linearized prefixes as the
	// store runs — CheckConsistency reads off the standing verdict plus the
	// residual window, memory stays bounded by the window rather than the op
	// count, and Metrics reports the verified frontier (OpsVerified,
	// WindowLag). Regular-condition shards keep the batch history — the
	// windowed decomposition is proved for atomicity. Batch runs (RunMulti)
	// inherit the same switch through store.Options.OnlineCheck.
	OnlineCheck bool
	// OnlineWindow is the online checker's retirement window in operations
	// (0 = consistency.DefaultWindowOps).
	OnlineWindow int
	// HistoryCap bounds the interactive operations a batch-history shard
	// retains (0 = DefaultHistoryCap). Once a shard's retained history
	// reaches the cap, further operations on it fail with ErrHistoryFull
	// rather than growing without bound. Online-checked shards reclaim
	// retired prefixes instead, so the cap binds only their unretired
	// residue (pending ops plus the open window), not the total op count.
	HistoryCap int
	// Telemetry, when set, wires the store into the metrics registry: the
	// live and net runtimes publish per-node storage-bit gauges against the
	// paper bounds, op-latency histograms, transport counters and
	// online-checker lag under a per-shard "shard" label, for batch runs
	// (RunWorkload, RunMulti) and interactive shards alike. Serve the
	// registry with telemetry.Serve (shmem.ServeTelemetry). Ignored on the
	// simulator backend. Nil disables all instrumentation at zero cost.
	Telemetry *telemetry.Registry
}

// Option mutates a Config before Open validates it — the functional-options
// face of the same knobs, for call sites that start from the zero Config.
type Option func(*Config)

// WithBackend selects the execution backend ("sim", "live" or "net").
func WithBackend(name string) Option { return func(c *Config) { c.Backend = name } }

// WithShards sets the number of independent register shards.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithFaults assigns fault scenario specs, cycled per shard.
func WithFaults(specs ...string) Option { return func(c *Config) { c.Faults = specs } }

// WithLiveConfig tunes the node runtime on the live backend.
func WithLiveConfig(lc runtime.Config) Option { return func(c *Config) { c.Live = lc } }

// WithNetConfig tunes the node runtime on the net backend (listen address,
// step duration, op timeout, transport dial/queue bounds).
func WithNetConfig(nc runtime.Config) Option { return func(c *Config) { c.Net = nc } }

// WithTransport selects the net backend listening on addrSpec — an address
// whose port part should stay 0 so every node gets its own ephemeral port
// (e.g. "127.0.0.1:0"). Empty keeps the default loopback spec. It implies
// WithBackend("net").
func WithTransport(addrSpec string) Option {
	return func(c *Config) {
		c.Backend = store.BackendNet
		c.Net.ListenAddr = addrSpec
	}
}

// WithStepBudget bounds each interactive simulator operation's deliveries.
func WithStepBudget(n int) Option { return func(c *Config) { c.StepBudget = n } }

// WithClients sets the per-shard writer and reader client counts.
func WithClients(writers, readers int) Option {
	return func(c *Config) { c.Writers, c.Readers = writers, readers }
}

// WithSeed sets the fault and batch-workload seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithWorkers bounds RunMulti's worker pool.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithPipeline sets the per-client pipeline depth for live and net batch
// drivers (per-client program order is preserved; see Config.Pipeline).
func WithPipeline(depth int) Option { return func(c *Config) { c.Pipeline = depth } }

// WithSkipCheck disables batch runs' per-shard consistency checking, to
// measure unchecked throughput (see Config.SkipCheck).
func WithSkipCheck() Option { return func(c *Config) { c.SkipCheck = true } }

// WithOnlineCheck streams settled operations into the windowed online
// atomicity checker as the store runs (see Config.OnlineCheck).
func WithOnlineCheck() Option { return func(c *Config) { c.OnlineCheck = true } }

// WithOnlineWindow sets the online checker's retirement window in operations
// (0 keeps consistency.DefaultWindowOps).
func WithOnlineWindow(n int) Option { return func(c *Config) { c.OnlineWindow = n } }

// WithHistoryCap bounds the interactive history a batch shard retains (see
// Config.HistoryCap and ErrHistoryFull).
func WithHistoryCap(n int) Option { return func(c *Config) { c.HistoryCap = n } }

// WithTelemetry publishes the store's runtime metrics — storage gauges vs
// the paper bounds, latency histograms, transport counters — into reg (see
// Config.Telemetry).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *Config) { c.Telemetry = reg }
}

func (c Config) withDefaults() Config {
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{store.AlgCAS}
	}
	if c.Servers == 0 {
		c.Servers = 5
		if c.F == 0 {
			c.F = 1
		}
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// runtimeConfig resolves the node-runtime config of the selected backend —
// Net on the net backend, Live otherwise — with the store-level Pipeline as
// its default depth.
func (c Config) runtimeConfig() runtime.Config {
	rc := c.Live
	if c.Backend == store.BackendNet {
		rc = c.Net
	}
	if rc.Pipeline == 0 {
		rc.Pipeline = c.Pipeline
	}
	return rc
}

// shardRuntime returns the store's runtime config for one shard, carrying
// the per-shard telemetry handle when a registry is configured. Interactive
// shards get "interactive-<shard>" series labels so their standing samplers
// never collide with batch runs reusing the same shard indices.
func (s *Store) shardRuntime(shard int, interactive bool) runtime.Config {
	rc := s.runtime
	if s.cfg.Telemetry != nil {
		rc.Telemetry = &telemetry.RunTelemetry{Registry: s.cfg.Telemetry, Shard: shard, Interactive: interactive}
	}
	return rc
}

// interactiveClients returns the per-shard client counts interactive shards
// deploy with (zero defaults to one each).
func (c Config) interactiveClients() (writers, readers int) {
	writers, readers = c.Writers, c.Readers
	if writers == 0 {
		writers = 1
	}
	if readers == 0 {
		readers = 1
	}
	return writers, readers
}

func (c Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("session: Shards must be >= 1")
	}
	if c.Writers < 0 || c.Readers < 0 {
		return fmt.Errorf("session: negative client counts (writers=%d readers=%d)", c.Writers, c.Readers)
	}
	if c.StepBudget < 0 {
		return fmt.Errorf("session: negative step budget %d", c.StepBudget)
	}
	if c.Workers < 0 {
		return fmt.Errorf("session: negative worker count")
	}
	if c.Pipeline < 0 {
		return fmt.Errorf("session: negative pipeline depth %d", c.Pipeline)
	}
	if c.OnlineWindow < 0 {
		return fmt.Errorf("session: negative online window %d", c.OnlineWindow)
	}
	if c.HistoryCap < 0 {
		return fmt.Errorf("session: negative history cap %d", c.HistoryCap)
	}
	for _, a := range c.Algorithms {
		if !slices.Contains(store.Algorithms(), a) {
			return fmt.Errorf("session: unknown algorithm %q (known: %v)", a, store.Algorithms())
		}
	}
	if _, err := store.BackendByName(c.Backend); err != nil {
		return err
	}
	for i, spec := range c.Faults {
		if _, err := faults.Parse(spec); err != nil {
			return fmt.Errorf("session: Faults[%d]: %w", i, err)
		}
	}
	return nil
}

// DefaultHistoryCap is the retained-history bound a batch shard gets when
// Config.HistoryCap is zero. A million 16-byte operations is roughly 100 MB
// of retained history — past that, callers should either check and reopen,
// or switch to WithOnlineCheck, whose retirement keeps residue small.
const DefaultHistoryCap = 1 << 20

// latencyWindow is how many of a shard's most recent completed operations
// Metrics' latency percentiles cover.
const latencyWindow = 1 << 16

// ErrHistoryFull reports an interactive operation refused because the
// shard's retained history reached Config.HistoryCap. The operation never
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
	// stream into exactly one of the two sinks below.
	feed *ioa.OpFeed
	// hist is the batch sink: the retained history CheckConsistency replays
	// (nil on online-checked shards).
	hist *ioa.History
	// checker is the streaming sink: it retires provably-linearized prefixes
	// as ops settle (nil on batch shards).
	checker *consistency.OnlineChecker
	// recorded counts operations accepted into the feed and not voided — the
	// batch shard's retained-history size for the HistoryCap bound.
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
	// history — so retired clients refuse further session operations, on
	// both backends (the live runtime additionally retires internally).
	retired map[ioa.NodeID]bool
}

// Store is one handle over a sharded register store: interactive client
// operations, batch experiments, metrics and consistency checking — on
// either backend. Open builds it; Close releases it (live node goroutines).
// All methods are safe for concurrent use.
type Store struct {
	cfg     Config
	runtime runtime.Config // the selected backend's node-runtime config, resolved once at Open
	backend store.Backend
	shards  []*shard
	closed  atomic.Bool
}

// Open deploys the configured shards on the configured backend and returns
// the store handle. Every shard's cluster and fault plan are built eagerly,
// so configuration errors (unknown algorithm or backend, malformed or
// backend-unsupported fault specs, invalid client counts) surface here, not
// mid-operation.
func Open(cfg Config, opts ...Option) (*Store, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
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
	writers, readers := cfg.interactiveClients()
	st := &Store{cfg: cfg, runtime: cfg.runtimeConfig(), backend: backend}
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
		sess, err := backend.OpenShard(cl, store.ShardOptions{
			Plan:       plan,
			StepBudget: cfg.StepBudget,
			Runtime:    st.shardRuntime(i, true),
		})
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
		sh := &shard{
			index:       i,
			cl:          cl,
			algorithm:   alg,
			condition:   cond,
			faultSpec:   planSpec.ShardFault(i),
			sess:        sess,
			clientLocks: locks,
			retired:     make(map[ioa.NodeID]bool),
		}
		// The windowed decomposition is proved for atomicity, so only
		// atomic-condition shards stream into the online checker; the rest
		// retain the batch history CheckConsistency replays.
		if cfg.OnlineCheck && cond == "atomic" {
			sh.checker = consistency.NewOnlineChecker(nil, consistency.WithWindowOps(cfg.OnlineWindow))
			sh.feed = ioa.NewOpFeed(sh.checker)
		} else {
			sh.hist = ioa.NewHistory()
			sh.feed = ioa.NewOpFeed(sh.hist)
		}
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// Config returns the effective (defaulted) configuration the store runs.
func (s *Store) Config() Config { return s.cfg }

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

// retainedLocked is the shard's retained-history size for the HistoryCap
// bound: everything recorded on a batch shard (the history keeps it all),
// minus the retired prefix on an online shard (the checker reclaimed it).
// Callers hold sh.mu.
func (sh *shard) retainedLocked() int {
	if sh.checker != nil {
		return sh.recorded - int(sh.checker.OpsVerified())
	}
	return sh.recorded
}

func (c Config) historyCap() int {
	if c.HistoryCap == 0 {
		return DefaultHistoryCap
	}
	return c.HistoryCap
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
	if hcap := s.cfg.historyCap(); sh.retainedLocked() >= hcap {
		sh.mu.Unlock()
		return nil, fmt.Errorf("session: shard %d: %w (cap %d; check and reopen, raise WithHistoryCap, or switch to WithOnlineCheck)", sh.index, ErrHistoryFull, hcap)
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

// history rebuilds a batch shard's checkable history: the sink's settled
// prefix plus the feed's held tail (operations behind an open ticket, the
// open ones appearing pending). Both parts are in invocation order, the tail
// strictly after the prefix, so concatenation preserves the feed's ordering
// contract. Callers hold sh.mu.
func (sh *shard) history() (*ioa.History, error) {
	ops := make([]ioa.Op, 0, len(sh.hist.Ops))
	ops = append(ops, sh.hist.Ops...)
	ops = append(ops, sh.feed.Snapshot()...)
	return ioa.HistoryFromOps(ops)
}

// CheckConsistency verifies every shard's accumulated interactive history
// against its algorithm's consistency condition ("atomic" or "regular").
// Batch shards replay their retained history through the offline checker;
// online-checked shards already verified their retired prefix as operations
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
		sh.mu.Lock()
		if sh.checker != nil {
			// The feed's held tail (ops invoked after the last released one,
			// open tickets appearing pending) joins the residual window, so
			// a settled read of an in-flight write's value is not mistaken
			// for a read of a never-written value.
			extra := sh.feed.Snapshot()
			sh.mu.Unlock()
			if err := sh.checker.Result(extra...); err != nil {
				return fmt.Errorf("session: shard %d (%s, %s): %w", sh.index, sh.algorithm, sh.condition, err)
			}
			continue
		}
		if err := sh.feed.Err(); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("session: shard %d history: %w", sh.index, err)
		}
		h, err := sh.history()
		cond := sh.condition
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("session: shard %d history: %w", sh.index, err)
		}
		switch cond {
		case "atomic":
			err = consistency.CheckAtomic(h, nil)
		case "regular":
			err = consistency.CheckRegular(h, nil)
		default:
			err = fmt.Errorf("unknown condition %q", cond)
		}
		if err != nil {
			return fmt.Errorf("session: shard %d (%s, %s): %w", sh.index, sh.algorithm, cond, err)
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
	// provably linearized, and WindowLag is how many settled operations
	// still await retirement (both zero on batch-history shards). RetainedOps
	// is what the shard currently holds against Config.HistoryCap.
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
	// MaxWindowLag is the largest residual window across shards (zero
	// without WithOnlineCheck).
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
			RetainedOps: sh.retainedLocked(),
			Storage:     sh.sess.Storage(),
			Faults:      sh.sess.FaultStats(),
		}
		if sh.checker != nil {
			sm.OpsVerified = sh.checker.OpsVerified()
			sm.WindowLag = sh.checker.WindowLag()
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
// counts, same backend) — the batch path that replaces the free-function
// RunWorkload/RunLiveWorkload pair. The store's first fault scenario is
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
	return s.backend.RunShard(cl, spec, store.ShardOptions{Runtime: s.shardRuntime(0, false)})
}

// Condition returns the consistency condition the store's first algorithm
// guarantees — the condition to check RunWorkload results against.
func (s *Store) Condition() string {
	return s.shards[0].condition
}

// RunMulti partitions a multi-key workload across this store's shard count
// and runs it on fresh clusters through the parallel store engine — the
// batch path that replaces the free-function RunStore. The store's
// algorithm mix, backend, client counts and fault scenarios apply (the
// spec's own Faults win when set); the interactive shards are untouched.
// Results on the simulator are byte-identical across worker counts.
func (s *Store) RunMulti(m workload.MultiSpec) (*store.Result, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if len(m.Faults) == 0 {
		m.Faults = s.cfg.Faults
	}
	return store.Run(store.Options{
		Shards:       s.cfg.Shards,
		Algorithms:   s.cfg.Algorithms,
		Servers:      s.cfg.Servers,
		F:            s.cfg.F,
		Workers:      s.cfg.Workers,
		Backend:      s.cfg.Backend,
		Writers:      s.cfg.Writers,
		Readers:      s.cfg.Readers,
		Runtime:      s.runtime,
		SkipCheck:    s.cfg.SkipCheck,
		OnlineCheck:  s.cfg.OnlineCheck,
		OnlineWindow: s.cfg.OnlineWindow,
		Telemetry:    s.cfg.Telemetry,
		Workload:     m,
	})
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
