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
//     checking (atomicity, regularity), and
//   - the executable-proof experiments: critical-point/valency analysis and
//     the injectivity counting arguments run against live algorithm code.
//
// Every setting is a Config field; the With* options are shorthand for the
// handful that callers set most. A name survives here only while something
// outside this package calls it: the shmem command (cmd/shmem), the
// examples or the benchmark module. The checkers, histories, fault plans and
// cluster types behind it live in the internal packages.
//
// See the examples directory for runnable walkthroughs, MIGRATION.md for
// the replacement of every removed name, and EXPERIMENTS.md for the
// paper-versus-measured record.
package shmem

import (
	"repro/internal/adversary"
	"repro/internal/cluster"
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

// WithShards sets the number of independent register shards keys are
// routed across.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithFaults assigns fault scenario specs (internal/faults grammar),
// cycled per shard.
func WithFaults(specs ...string) Option { return func(c *Config) { c.Faults = specs } }

// WithClients sets the per-shard writer and reader client counts.
func WithClients(writers, readers int) Option {
	return func(c *Config) { c.Writers, c.Readers = writers, readers }
}

// WithPipeline sets the per-client operation pipeline depth the live and net
// batch drivers use: each driver keeps up to depth operations in flight at
// one client, with the node starting each only after its predecessor
// responds, so per-client program order is preserved. Ignored on the
// simulator and for interactive Put/Get. It sets Config.Net.Pipeline; a
// negative depth fails Open.
func WithPipeline(depth int) Option { return func(c *Config) { c.Net.Pipeline = depth } }

// WithOnlineCheck streams the settled operations of Store.RunMulti batch
// runs on the live and net backends into a windowed online checker for each
// shard's condition (atomic or regular) as they run, instead of checking the
// full history offline afterwards: provably-correct prefixes are retired on
// the fly, memory stays bounded by the window, and the result reports the
// verified frontier (OpsVerified, MaxWindowLag). The simulator holds
// complete batch histories and checks them offline either way. Interactive
// shards stream into an online checker with or without it.
// Config.OnlineWindow sizes the window.
func WithOnlineCheck() Option { return func(c *Config) { c.OnlineCheck = true } }

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

// ErrHistoryFull reports an interactive operation refused because its
// shard's retained operations reached Config.HistoryCap (2^20 when zero);
// the operation never started. Branch with errors.Is. A shard retains its
// online checker's window and its pending operations, so only one whose
// checker cannot retire (behind an abandoned write, or under clients that
// never leave a clean cut) comes near the cap.
var ErrHistoryFull = session.ErrHistoryFull

// ErrStepBudget reports that an interactive simulator operation exhausted
// its delivery budget before completing; widen it with Config.StepBudget
// (2,000,000 deliveries when zero).
var ErrStepBudget = store.ErrStepBudget

// ErrUnknownBackend reports a backend selector naming no registered backend.
// Every selection surface — Open, WithBackend, Config.Backend, the CLI
// -backend flag — wraps it, so callers branch with errors.Is; the message
// lists the valid names (StoreBackends).
var ErrUnknownBackend = store.ErrUnknownBackend

// Re-exported foundation types.
type (
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
	// Figure1Row is one ν-position of the Figure 1 series.
	Figure1Row = core.Figure1Row
	// FaultScenario is a named, parameterized recipe that expands into a
	// fault plan for an (n, f) deployment.
	FaultScenario = faults.Scenario
	// FaultStats aggregates an execution's injected fault events.
	FaultStats = ioa.FaultStats
)

// StoreAlgorithms lists the algorithm names Config.Algorithms accepts.
func StoreAlgorithms() []string { return store.Algorithms() }

// StoreBackends lists the execution backends Config.Backend accepts:
// "sim" (the deterministic simulator, the default), "live" (the concurrent
// goroutine-per-node runtime) and "net" (one real TCP socket per node over
// the loopback network).
func StoreBackends() []string { return store.Backends() }

// NetConfig tunes the node runtime behind both the "live" and the "net"
// backend (Config.Net): the step duration mapping fault delays and partition
// windows to wall time, the per-operation timeout, the per-node mailbox
// depth, the batch drivers' per-client pipeline depth and the listen address
// spec (ephemeral loopback ports by default; net only). The zero value
// selects the defaults.
type NetConfig = runtime.Config

// FaultScenarioLibrary returns the standard scenario grid: quorum-preserving
// crash of f, quorum-killing crash of f+1, healing partition, lossy links
// and delay/reorder.
func FaultScenarioLibrary() []FaultScenario { return faults.Library() }

// FaultScenarioUsage describes the scenario spec grammar — the strings
// Config.Faults and MultiWorkloadSpec.Faults take — for CLI help.
func FaultScenarioUsage() string { return faults.Usage() }

// MakeValue returns a deterministic pseudo-random value of the given size,
// unique per seed — writes in checked histories must have distinct values.
func MakeValue(size int, seed uint64) []byte { return register.MakeValue(size, seed) }

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

// Builder returns a cluster.Builder, for use with ProofConfig, that deploys
// the named algorithm (a Config.Algorithms name) on n servers tolerating f
// crashes, with the given writers and one reader.
func Builder(alg string, n, f, writers int) cluster.Builder {
	return func() (*cluster.Cluster, error) {
		cl, _, err := store.DeployAlgorithmSized(alg, n, f, writers, 1)
		return cl, err
	}
}
