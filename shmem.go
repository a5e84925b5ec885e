// Package shmem is the public API of this reproduction of
//
//	Cadambe, Wang, Lynch — "Information-Theoretic Lower Bounds on the
//	Storage Cost of Shared Memory Emulation" (PODC 2016,
//	arXiv:1605.06844).
//
// The center of the API is the handle: Open deploys a sharded register
// store on either execution backend and returns a Store whose methods cover
// the whole lifecycle —
//
//	st, err := shmem.Open(shmem.Config{}, shmem.WithShards(4))
//	defer st.Close()
//	st.Put(ctx, key, value)        // interactive, context-aware client ops
//	st.Get(ctx, key)               // routed to the key's shard
//	st.RunMulti(multiSpec)         // batch experiments on fresh clusters
//	st.Metrics()                   // storage reports, fault stats, latencies
//	st.CheckConsistency()          // verdict over the interactive history
//
// Around the handle, the package bundles:
//
//   - deployments of the register-emulation algorithms the paper reasons
//     about (ABD replication, CAS/CASGC erasure-coded atomic storage, and
//     two erasure-coded SWSR regular registers),
//   - the paper's storage-cost lower bounds (Theorems B.1, 4.1, 5.1, 6.5
//     and their corollaries) in exact and normalized form, plus the
//     Figure 1 series generator,
//   - seeded workload execution with storage metering and consistency
//     checking (atomicity, regularity, weak regularity), and
//   - the executable-proof experiments: critical-point/valency analysis and
//     the injectivity counting arguments run against live algorithm code.
//
// See the examples directory for runnable walkthroughs, MIGRATION.md for
// the replacement of every removed name, and EXPERIMENTS.md for the
// paper-versus-measured record.
package shmem

import (
	"time"

	"repro/internal/abd"
	"repro/internal/adversary"
	"repro/internal/cas"
	"repro/internal/cluster"
	"repro/internal/coded"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/register"
	"repro/internal/runtime"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// --- the store handle ---

// Config names everything a Store needs — the one description of a run: the
// algorithm mix, the per-shard cluster shape (n, f), the shard count, the
// execution backend, the fault scenarios, and the interactive and batch
// tuning. The zero value opens a one-shard CAS store of 5 servers tolerating
// 1 crash on the simulator; functional options (WithBackend, WithShards, ...)
// adjust it from there. Open resolves it once and Store.Config returns the
// resolved value.
type Config = store.Config

// Option adjusts a Config passed to Open — the functional-options face of the
// same fields, for call sites that start from the zero Config.
type Option func(*Config)

// Store is a handle over a sharded register store: interactive Put/Get
// routed to per-shard deployments, batch experiments, a unified metrics
// snapshot, and consistency checking over the interactive history — on
// either backend. Close releases it.
type Store = session.Store

// Metrics is a Store's unified snapshot: per-shard storage reports, fault
// stats, op counts and latency percentiles.
type Metrics = session.Metrics

// StoreShardMetrics is one shard's slice of a Metrics snapshot.
type StoreShardMetrics = session.ShardMetrics

// Open applies the options, resolves the configuration (defaults and
// validation, once), deploys its shards on its backend and returns the store
// handle. Configuration errors (unknown algorithm or backend, a non-positive
// cluster shape, malformed or backend-unsupported fault specs, invalid client
// counts) surface here, not mid-operation.
func Open(cfg Config, opts ...Option) (*Store, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	return session.Open(cfg)
}

// WithBackend selects the execution backend: "sim" (the deterministic
// simulator, the default), "live" (the concurrent goroutine-per-node
// runtime) or "net" (the live runtime's real-network sibling: every node
// owns a TCP socket and messages cross the loopback network). Unknown names
// fail Open with ErrUnknownBackend.
func WithBackend(name string) Option { return func(c *Config) { c.Backend = name } }

// WithTransport selects the net backend with every node endpoint listening
// on addrSpec — an address whose port part should stay 0 so each node gets
// its own ephemeral port (e.g. "127.0.0.1:0"; "" keeps that default). It
// implies WithBackend("net").
func WithTransport(addrSpec string) Option {
	return func(c *Config) {
		c.Backend = store.BackendNet
		c.Net.ListenAddr = addrSpec
	}
}

// WithNetConfig tunes the net runtime (listen address, step duration for
// fault delays and partitions, per-operation timeout, transport dial and
// queue bounds).
func WithNetConfig(nc NetConfig) Option { return func(c *Config) { c.Net = nc } }

// WithShards sets the number of independent register shards keys are
// routed across.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithFaults assigns fault scenario specs (internal/faults grammar),
// cycled per shard.
func WithFaults(specs ...string) Option { return func(c *Config) { c.Faults = specs } }

// WithLiveConfig tunes the live runtime (step duration, op timeout,
// mailbox capacity).
func WithLiveConfig(lc LiveConfig) Option { return func(c *Config) { c.Live = lc } }

// WithStepBudget bounds the deliveries each interactive simulator
// operation may consume (default DefaultStepBudget); exhausting it returns
// ErrStepBudget.
func WithStepBudget(n int) Option { return func(c *Config) { c.StepBudget = n } }

// WithClients sets the per-shard writer and reader client counts.
func WithClients(writers, readers int) Option {
	return func(c *Config) { c.Writers, c.Readers = writers, readers }
}

// WithSeed sets the fault and batch-workload seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithWorkers bounds the worker pool batch runs (Store.RunMulti) use.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithPipeline sets the per-client operation pipeline depth the live and net
// batch drivers use: each driver keeps up to depth operations in flight at
// one client, with the node starting each only after its predecessor
// responds, so per-client program order is preserved. Ignored on the
// simulator and for interactive Put/Get.
func WithPipeline(depth int) Option { return func(c *Config) { c.Pipeline = depth } }

// WithSkipCheck disables batch runs' per-shard consistency checking, to
// measure unchecked throughput. The atomicity check is O(n log n) at any
// write concurrency; only the regularity checks are still quadratic scans.
// Interactive CheckConsistency is unaffected.
func WithSkipCheck() Option { return func(c *Config) { c.SkipCheck = true } }

// WithOnlineCheck streams every settled operation into a windowed online
// atomicity checker as the store runs, instead of accumulating the full
// history for one offline check: provably-linearized prefixes are retired
// on the fly, memory stays bounded by the window, CheckConsistency reads
// off the standing verdict, and Metrics reports the verified frontier
// (OpsVerified, WindowLag). Applies to interactive atomic-condition shards
// and, through Store.RunMulti, to batch runs on the live and net backends
// (the simulator holds complete histories and checks them offline either
// way). Regular-condition shards keep the offline checker.
func WithOnlineCheck() Option { return func(c *Config) { c.OnlineCheck = true } }

// WithOnlineWindow sets the online checker's retirement window in
// operations (0 keeps the DefaultOnlineWindow).
func WithOnlineWindow(n int) Option { return func(c *Config) { c.OnlineWindow = n } }

// WithHistoryCap bounds the interactive history a batch-history shard
// retains (0 keeps DefaultHistoryCap); at the cap further operations fail
// with ErrHistoryFull. Online-checked shards reclaim retired prefixes, so
// the cap binds only their unretired residue.
func WithHistoryCap(n int) Option { return func(c *Config) { c.HistoryCap = n } }

// Telemetry is a metrics registry: lock-free counters, gauges and latency
// histograms the store's runtimes publish into when the registry is wired
// through WithTelemetry — per-node storage-bit gauges compared live against
// the paper bounds (Theorems 4.1 and 5.1), op-latency histograms, transport
// frame/batch counters and online-checker lag, each labelled by shard.
// Scrape it over HTTP with ServeTelemetry or dump it directly with
// WritePrometheus.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty metrics registry ready for WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// WithTelemetry publishes the store's runtime metrics into reg on the live
// and net backends (the simulator is not instrumented). Nil disables
// instrumentation at zero cost — uninstrumented runs stay on the exact
// pre-telemetry code paths.
func WithTelemetry(reg *Telemetry) Option { return func(c *Config) { c.Telemetry = reg } }

// TelemetryServer is a running telemetry HTTP endpoint; Close releases it.
type TelemetryServer = telemetry.Server

// ServeTelemetry starts an HTTP server on addr exposing reg as
// Prometheus-text /metrics, sampled op-lifecycle traces as JSON /trace, and
// the standard pprof profiles under /debug/pprof/. Use addr ":0" (or
// "127.0.0.1:0") for an ephemeral port; the server's Addr reports the bound
// address.
func ServeTelemetry(addr string, reg *Telemetry) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg)
}

// DefaultOnlineWindow is the online checker's retirement window when none
// is configured.
const DefaultOnlineWindow = consistency.DefaultWindowOps

// DefaultHistoryCap is the retained interactive history bound a
// batch-history shard gets when WithHistoryCap is not used.
const DefaultHistoryCap = store.DefaultHistoryCap

// ErrHistoryFull reports an interactive operation refused because its
// shard's retained history reached the cap (WithHistoryCap); the operation
// never started. Branch with errors.Is.
var ErrHistoryFull = session.ErrHistoryFull

// DefaultStepBudget is the delivery budget an interactive simulator
// operation (or a workload run without MaxSteps) gets when no explicit
// budget is configured.
const DefaultStepBudget = workload.DefaultStepBudget

// ErrStepBudget reports that an interactive simulator operation exhausted
// its delivery budget before completing; widen it with WithStepBudget.
var ErrStepBudget = store.ErrStepBudget

// ErrUnknownBackend reports a backend selector naming no registered backend.
// Every selection surface — Open, WithBackend, Config.Backend, the CLI
// -backend flag — wraps it, so callers branch with errors.Is; the message
// lists the valid names (StoreBackends).
var ErrUnknownBackend = store.ErrUnknownBackend

// Re-exported foundation types.
type (
	// Cluster is a deployed register emulation: a simulated system plus
	// node roles.
	Cluster = cluster.Cluster
	// Params is a system configuration (N servers, f tolerated failures).
	Params = core.Params
	// WorkloadSpec describes a seeded workload (writes, reads, target
	// write-concurrency ν, value size, crashes).
	WorkloadSpec = workload.Spec
	// WorkloadResult carries the history, the storage report and the
	// normalized total cost of a run.
	WorkloadResult = workload.Result
	// MultiWorkloadSpec describes a seeded multi-key workload (keyspace
	// size, Zipf/uniform key skew, per-key read/write mix, per-shard ν).
	MultiWorkloadSpec = workload.MultiSpec
	// StoreResult aggregates the per-shard storage reports and consistency
	// verdicts of a sharded store run.
	StoreResult = store.Result
	// ShardResult is one shard's slice of a StoreResult.
	ShardResult = store.ShardResult
	// Figure1Row is one ν-position of the Figure 1 series.
	Figure1Row = core.Figure1Row
	// FaultPlan is a deterministic, seeded fault schedule: message drops,
	// bounded delays (which reorder links), link outages/partitions and
	// scheduled server crashes/recoveries. Install one via
	// WorkloadSpec.FaultPlan or per shard via MultiWorkloadSpec.Faults.
	FaultPlan = faults.Plan
	// FaultScenario is a named, parameterized recipe that expands into a
	// FaultPlan for an (n, f) deployment.
	FaultScenario = faults.Scenario
	// FaultStats aggregates an execution's injected fault events.
	FaultStats = ioa.FaultStats
	// FaultRecord is one injected fault event as recorded in a History.
	FaultRecord = ioa.FaultRecord
	// StorageReport is the kernel's running-maximum storage accounting.
	StorageReport = ioa.StorageReport
	// History is an execution's operation history.
	History = ioa.History
	// Invocation starts an operation at a client.
	Invocation = ioa.Invocation
	// NodeID identifies a node.
	NodeID = ioa.NodeID
)

// Operation kinds for Invocation.
const (
	OpRead  = ioa.OpRead
	OpWrite = ioa.OpWrite
)

// StoreAlgorithms lists the algorithm names Config.Algorithms accepts.
func StoreAlgorithms() []string { return store.Algorithms() }

// StoreBackends lists the execution backends Config.Backend accepts:
// "sim" (the deterministic simulator, the default), "live" (the concurrent
// goroutine-per-node runtime) and "net" (one real TCP socket per node over
// the loopback network).
func StoreBackends() []string { return store.Backends() }

// LiveConfig tunes the node runtime on the "live" backend (step duration for
// fault delays, per-operation timeout, mailbox capacity). The zero value
// selects the defaults. It is the same type as NetConfig: one runtime drives
// both backends, and the transport fields are simply unread on live.
type LiveConfig = runtime.Config

// NetConfig tunes the node runtime on the "net" backend: the listen address
// spec (ephemeral loopback ports by default), the step duration mapping
// fault delays and partition windows to wall time, the per-operation
// timeout, and the transport's dial timeout and per-connection send queue
// capacity. The zero value selects the defaults.
type NetConfig = runtime.Config

// LatencyPercentile returns the p-th percentile (0 < p <= 1) of the given
// latencies, nearest-rank.
func LatencyPercentile(ds []time.Duration, p float64) time.Duration {
	return workload.Percentile(ds, p)
}

// ParseFaultScenario parses a fault scenario spec — "crash-f[@STEP[:RECOVER]]",
// "crash-majority[@STEP[:RECOVER]]", "partition@START:HEAL[:ISOLATE]",
// "lossy=PROB", "delay=MIN:MAX", combinable with "+" — into a FaultScenario.
// "" and "none" parse to nil (no faults).
func ParseFaultScenario(spec string) (FaultScenario, error) { return faults.Parse(spec) }

// BuildFaultPlan parses a scenario spec and expands it into a concrete plan
// for an (n, f) deployment. It returns nil for "" and "none".
func BuildFaultPlan(spec string, n, f int, seed int64) (*FaultPlan, error) {
	sc, err := faults.Parse(spec)
	if err != nil || sc == nil {
		return nil, err
	}
	return sc.Build(n, f, seed)
}

// FaultScenarioLibrary returns the standard scenario grid: quorum-preserving
// crash of f, quorum-killing crash of f+1, healing partition, lossy links
// and delay/reorder.
func FaultScenarioLibrary() []FaultScenario { return faults.Library() }

// FaultScenarioUsage describes the scenario spec grammar, for CLI help.
func FaultScenarioUsage() string { return faults.Usage() }

// MakeValue returns a deterministic pseudo-random value of the given size,
// unique per seed — writes in checked histories must have distinct values.
func MakeValue(size int, seed uint64) []byte { return register.MakeValue(size, seed) }

// CheckAtomic verifies linearizability of a history (unique write values)
// in O(n log n), whatever its concurrency.
func CheckAtomic(h *History, initial []byte) error { return consistency.CheckAtomic(h, initial) }

// OnlineChecker is the streaming linearizability checker behind
// WithOnlineCheck: feed it operations in invocation order with Observe and
// it retires provably-linearized prefixes as they form, keeping memory
// bounded by the window. NewOnlineChecker builds one for direct use over
// histories produced outside a Store.
type OnlineChecker = consistency.OnlineChecker

// NewOnlineChecker returns a streaming linearizability checker for a
// register with the given initial value (nil for a fresh register).
// windowOps <= 0 selects DefaultOnlineWindow.
func NewOnlineChecker(initial []byte, windowOps int) *OnlineChecker {
	return consistency.NewOnlineChecker(initial, consistency.WithWindowOps(windowOps))
}

// CheckRegular verifies single-writer regularity of a history.
func CheckRegular(h *History, initial []byte) error { return consistency.CheckRegular(h, initial) }

// CheckWeaklyRegular verifies the multi-writer weak regularity of Section
// 6.2.
func CheckWeaklyRegular(h *History, initial []byte) error {
	return consistency.CheckWeaklyRegular(h, initial)
}

// --- bounds ---

// SingletonTotalBits returns the Theorem B.1 / Corollary B.2 total-storage
// bound in bits.
func SingletonTotalBits(p Params, log2V float64) float64 { return core.SingletonTotalBits(p, log2V) }

// Theorem41TotalBits returns the Corollary 4.2 total-storage bound in bits.
func Theorem41TotalBits(p Params, log2V float64) float64 { return core.Theorem41TotalBits(p, log2V) }

// Theorem51TotalBits returns the Corollary 5.2 total-storage bound in bits.
func Theorem51TotalBits(p Params, log2V float64) float64 { return core.Theorem51TotalBits(p, log2V) }

// Theorem65TotalBits returns the Corollary 6.6 total-storage bound in bits
// at write concurrency nu.
func Theorem65TotalBits(p Params, nu int, log2V float64) float64 {
	return core.Theorem65TotalBits(p, nu, log2V)
}

// Figure1 regenerates the paper's Figure 1 series for ν = 0..maxNu.
func Figure1(p Params, maxNu int) ([]Figure1Row, error) { return core.Figure1(p, maxNu) }

// Figure1Table formats Figure 1 rows as a text table.
func Figure1Table(p Params, rows []Figure1Row) string { return core.Figure1Table(p, rows) }

// ReplicationCrossoverNu returns the write concurrency at which replication
// overtakes erasure coding (Section 2.3).
func ReplicationCrossoverNu(p Params) int { return core.ReplicationCrossoverNu(p) }

// Section7Summary evaluates the paper's concluding feasibility summary for
// a normalized cost g at concurrency nu.
func Section7Summary(p Params, nu int, g float64) core.Section7Conclusion {
	return core.Section7Summary(p, nu, g)
}

// --- executable proofs ---

// ProofConfig parameterizes the executable-proof experiments.
type ProofConfig = adversary.Config

// Theorem41Result reports the executable Theorem 4.1 proof outcome.
type Theorem41Result = adversary.Theorem41Result

// AppendixBResult reports the executable Theorem B.1 proof outcome.
type AppendixBResult = adversary.AppendixBResult

// Theorem65Result reports the executable Theorem 6.5 experiment outcome.
type Theorem65Result = adversary.Theorem65Result

// TwoVersionBuilder returns a cluster.Builder for the two-version coded
// register, for use with ProofConfig.
func TwoVersionBuilder(n, f int) cluster.Builder {
	return func() (*Cluster, error) {
		return coded.Deploy(coded.Options{Servers: n, F: f, Readers: 1})
	}
}

// ABDBuilder returns a cluster.Builder for the SWMR ABD register.
func ABDBuilder(n, f int) cluster.Builder {
	return func() (*Cluster, error) {
		return abd.Deploy(abd.Options{Servers: n, F: f, Writers: 1, Readers: 1})
	}
}

// CASBuilder returns a cluster.Builder for a plain CAS register with the
// given number of writers.
func CASBuilder(n, f, writers int) cluster.Builder {
	return func() (*Cluster, error) {
		return cas.Deploy(cas.Options{Servers: n, F: f, GCDepth: -1, Writers: writers, Readers: 1})
	}
}
