package store

import (
	"fmt"
	"slices"

	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config names everything a store needs: the algorithm mix, the per-shard
// cluster shape (n, f), the shard count, the execution backend, the fault
// scenarios, and the interactive and batch tuning. It is the one description
// of a run: session.Open resolves it once (Resolve) and the interactive
// shards, Store.RunWorkload and the batch engine (Run) all read that resolved
// value. The zero value resolves to a one-shard CAS store of 5 servers
// tolerating 1 crash on the simulator.
type Config struct {
	// Algorithms assigns an algorithm per shard, cycling when shorter than
	// Shards (shard i runs Algorithms[i mod len]). Empty defaults to CAS
	// everywhere. Mixing algorithms across shards is allowed — each shard is
	// checked against its own algorithm's consistency condition.
	Algorithms []string
	// Servers and F shape every shard's cluster (N servers, f tolerated
	// crashes). Servers 0 defaults to 5 servers tolerating 1 crash.
	Servers int
	F       int
	// Shards is the number of independent register deployments (default 1).
	// Keys are routed to shards by workload.KeyShard.
	Shards int
	// Backend selects the execution substrate: BackendSim (default, the
	// deterministic simulator), BackendLive (the concurrent
	// goroutine-per-node runtime over channels) or BackendNet (the same
	// runtime with every node on its own TCP socket over the loopback
	// network). Fingerprints are only meaningful on the simulator; live and
	// net results vary run to run and are checked for safety.
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
	// per-algorithm shapes DeployShard sizes for the target ν for batch runs
	// (RunMulti, RunWorkload). Single-writer algorithms reject Writers > 1.
	Writers int
	Readers int
	// StepBudget bounds the deliveries one interactive simulator operation
	// may consume (0 = workload.DefaultStepBudget). Exhausting it returns
	// ErrStepBudget. Ignored on the live and net backends, which bound
	// operations by their OpTimeout instead.
	StepBudget int
	// Net tunes the node runtime behind both wall-clock backends, live and
	// net: step duration, op timeout, mailbox capacity, the batch drivers'
	// per-client pipeline depth and, on net, the listen address. The zero
	// value selects the defaults (5s op timeout, one operation in flight per
	// client, ephemeral loopback ports). Ignored on the simulator.
	Net runtime.Config
	// Seed derives each shard's fault-plan decision stream (and seeds batch
	// runs through RunWorkload). Same seed, same injected faults.
	Seed int64
	// Workers bounds the goroutines RunMulti runs shards on (0 = GOMAXPROCS).
	// On the simulator, successful results are independent of it: every shard
	// runs on its own ioa.System with a seed derived from (seed, shard index).
	Workers int
	// SkipCheck disables batch runs' per-shard consistency checking, to
	// measure unchecked throughput. The atomicity check is O(n log n) at any
	// write concurrency; the offline regularity check scans the writes once
	// per read, and the online one only within its window. History
	// well-formedness (per-client interval ordering) is still enforced — it
	// is built into history construction on every backend — and interactive
	// CheckConsistency is unaffected.
	SkipCheck bool
	// OnlineCheck streams the settled operations of batch runs (Run, i.e.
	// RunMulti) on the live and net backends into a windowed online checker
	// for the shard's condition (atomic or regular), fed from the runtime,
	// instead of checking their history offline afterwards: provably-correct
	// prefixes retire as the run goes, and the result reports the verified
	// frontier (OpsVerified, WindowLag). The simulator holds the complete
	// history of a batch run and checks it offline either way. Ignored when
	// SkipCheck is set. Interactive shards do not read it: they always stream
	// into an online checker.
	OnlineCheck bool
	// OnlineWindow is the online checkers' retirement window in operations
	// (0 = consistency.DefaultWindowOps), for batch runs under OnlineCheck and
	// for interactive shards.
	OnlineWindow int
	// HistoryCap bounds the interactive operations a shard retains
	// (0 = DefaultHistoryCap). Once a shard's retained operations reach the
	// cap, further operations on it fail with session.ErrHistoryFull rather
	// than growing without bound. Every shard streams into an online checker
	// that reclaims retired prefixes, so the cap binds only the unretired
	// residue (pending ops plus the open window). That residue grows only
	// while no clean cut forms: behind an abandoned write, which stays
	// pending for good, or under clients that never leave a moment with no
	// operation in flight.
	HistoryCap int
	// Telemetry, when set, wires the store into the metrics registry: the
	// live and net runtimes publish per-node storage-bit gauges against the
	// paper bounds, op-latency histograms, transport counters and
	// online-checker lag under a per-shard "shard" label, for batch runs
	// (RunWorkload, RunMulti) and interactive shards alike. Serve the
	// registry with telemetry.Serve (shmem.ServeTelemetry). Ignored on the
	// simulator backend, whose runs have no wall-clock dynamics to sample.
	// Nil disables all instrumentation at zero cost.
	Telemetry *telemetry.Registry
}

// DefaultHistoryCap is the retained-operation bound an interactive shard
// gets when Config.HistoryCap is zero. Only a shard whose checker cannot
// retire (an abandoned write, or clients that never leave a clean cut) ever
// comes near it: a million 16-byte operations is roughly 100 MB of retained
// history, and past that callers should check and reopen.
const DefaultHistoryCap = 1 << 20

// Resolve fills every default and validates the result: the one place a
// store configuration is defaulted and checked. Everything downstream — the
// interactive shards, RunWorkload, Run — reads the returned value as is.
func (c Config) Resolve() (Config, error) {
	c = c.withDefaults()
	return c, c.validate()
}

func (c Config) withDefaults() Config {
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{AlgCAS}
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
	if c.Backend == "" {
		c.Backend = BackendSim
	}
	if c.StepBudget == 0 {
		c.StepBudget = workload.DefaultStepBudget
	}
	if c.OnlineWindow == 0 {
		c.OnlineWindow = consistency.DefaultWindowOps
	}
	if c.HistoryCap == 0 {
		c.HistoryCap = DefaultHistoryCap
	}
	return c
}

func (c Config) validate() error {
	if c.Servers < 1 {
		return fmt.Errorf("store: Servers must be >= 1 (got %d)", c.Servers)
	}
	if c.F < 0 {
		return fmt.Errorf("store: F must be >= 0 (got %d)", c.F)
	}
	if c.Shards < 1 {
		return fmt.Errorf("store: Shards must be >= 1 (got %d)", c.Shards)
	}
	if c.Writers < 0 || c.Readers < 0 {
		return fmt.Errorf("store: negative client counts (writers=%d readers=%d)", c.Writers, c.Readers)
	}
	if c.StepBudget < 0 {
		return fmt.Errorf("store: negative step budget %d", c.StepBudget)
	}
	if c.Workers < 0 {
		return fmt.Errorf("store: negative worker count %d", c.Workers)
	}
	if c.Net.Pipeline < 0 {
		return fmt.Errorf("store: negative pipeline depth %d", c.Net.Pipeline)
	}
	if c.OnlineWindow < 0 {
		return fmt.Errorf("store: negative online window %d", c.OnlineWindow)
	}
	if c.HistoryCap < 0 {
		return fmt.Errorf("store: negative history cap %d", c.HistoryCap)
	}
	for _, a := range c.Algorithms {
		if !slices.Contains(Algorithms(), a) {
			return fmt.Errorf("store: unknown algorithm %q (known: %v)", a, Algorithms())
		}
	}
	if _, err := BackendByName(c.Backend); err != nil {
		return err
	}
	return validateFaults(c, c.Faults)
}

// validateFaults rejects malformed scenario specs, naming the offending
// index, and on the wall-clock backends also builds each scenario for the
// store's (n, f) so an unbuildable plan surfaces before any shard runs.
func validateFaults(c Config, specs []string) error {
	for i, spec := range specs {
		sc, err := faults.Parse(spec)
		if err != nil {
			return fmt.Errorf("store: Faults[%d]: %w", i, err)
		}
		if sc == nil || c.Backend == BackendSim {
			continue
		}
		plan, err := sc.Build(c.Servers, c.F, 1)
		if err == nil {
			err = plan.Validate()
		}
		if err != nil {
			return fmt.Errorf("store: Faults[%d] %q: %w", i, spec, err)
		}
	}
	return nil
}

// Shard derives one shard's backend options from the resolved config: the
// runtime config, the per-shard telemetry handle when a registry is
// configured (interactive shards get "interactive-<shard>" series labels so
// their standing samplers never collide with batch runs reusing the same
// shard indices), and the simulator's step budget. Callers add the shard's
// fault plan and history sink.
func (c Config) Shard(shard int, interactive bool) ShardOptions {
	o := ShardOptions{StepBudget: c.StepBudget, Runtime: c.Net}
	if c.Telemetry != nil {
		// Each shard gets its own RunTelemetry value into one shared
		// registry; the shard label keeps the series apart.
		o.Telemetry = &telemetry.RunTelemetry{Registry: c.Telemetry, Shard: shard, Interactive: interactive}
	}
	return o
}
