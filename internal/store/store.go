package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/ioa"
	"repro/internal/runtime"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Options configures a sharded store run.
type Options struct {
	// Shards is the number of independent register deployments.
	Shards int
	// Algorithms assigns an algorithm per shard, cycling when shorter than
	// Shards (shard i runs Algorithms[i mod len]). Empty defaults to CAS on
	// every shard. Mixing algorithms across shards is allowed — each shard
	// is checked against its own algorithm's consistency condition.
	Algorithms []string
	// Servers and F shape every shard's cluster (N servers, f tolerated
	// crashes).
	Servers int
	F       int
	// Workers bounds the goroutines running shards concurrently; 0 means
	// GOMAXPROCS. On the simulator backend, successful results are
	// independent of the worker count: every shard runs on its own
	// ioa.System with a seed derived from (Workload.Seed, shard index).
	// Failed runs abort early, but the reported error is still
	// deterministic — the lowest-indexed failing shard's — at any worker
	// count (see Run).
	Workers int
	// Backend selects the execution substrate for every shard: BackendSim
	// (default, the deterministic simulator), BackendLive (the concurrent
	// goroutine-per-node runtime over channels) or BackendNet (the same
	// runtime over the real network: one TCP socket per node). Fingerprints are only
	// meaningful on the simulator; live and net results vary run to run and
	// are checked for safety.
	Backend string
	// Writers and Readers override each shard's client counts. Zero keeps
	// DeployAlgorithm's per-algorithm shapes (the default); setting them is
	// how live client-count sweeps scale concurrency. Single-writer
	// algorithms reject Writers > 1.
	Writers int
	Readers int
	// Runtime tunes the node runtime behind BackendLive and BackendNet (step
	// duration for fault delays and partitions, per-op timeout, mailbox
	// capacity; listen address and transport bounds on net). The zero value
	// selects the defaults; ignored on the simulator.
	Runtime runtime.Config
	// SkipCheck disables the per-shard consistency check, to measure
	// unchecked throughput. The atomicity check is O(n log n) at any write
	// concurrency ν; CheckRegular and CheckWeaklyRegular are still quadratic
	// scans, which long regular-condition runs may not want to pay.
	// History well-formedness (per-client interval ordering) is still
	// enforced — it is built into history construction on every backend.
	SkipCheck bool
	// OnlineCheck switches atomic-condition shards to the streaming checker.
	// On the live and net backends the runtime feeds every settled operation
	// into a consistency.OnlineChecker as it completes, so the verdict is
	// ready at shutdown and run memory stays bounded by the checker's window
	// instead of the full history. The simulator (whose schedule is a single
	// discrete sequence with the complete history already in hand) checks
	// offline either way. Shards checked under a regular condition keep the
	// offline checker — the windowed decomposition is proved for atomicity.
	// Ignored when SkipCheck is set.
	OnlineCheck bool
	// OnlineWindow is the online checker's retirement window in operations
	// (0 = consistency.DefaultWindowOps).
	OnlineWindow int
	// Telemetry, when non-nil, receives live run metrics from every shard on
	// the concurrent backends: per-node storage gauges against the paper
	// bounds, op counters and latency histograms, transport counters, and
	// checker gauges, each labeled with its shard index. Ignored on the
	// simulator backend, whose runs have no wall-clock dynamics to sample.
	Telemetry *telemetry.Registry
	// Workload is the multi-key workload to partition across shards.
	Workload workload.MultiSpec
}

func (o Options) algorithms() []string {
	if len(o.Algorithms) == 0 {
		return []string{AlgCAS}
	}
	return o.Algorithms
}

func (o Options) validate() error {
	if o.Shards < 1 {
		return fmt.Errorf("store: Shards must be >= 1")
	}
	if o.Workers < 0 {
		return fmt.Errorf("store: negative worker count")
	}
	for _, a := range o.algorithms() {
		if !slices.Contains(Algorithms(), a) {
			return fmt.Errorf("store: unknown algorithm %q (known: %v)", a, Algorithms())
		}
	}
	if o.Writers < 0 || o.Readers < 0 {
		return fmt.Errorf("store: negative client counts (writers=%d readers=%d)", o.Writers, o.Readers)
	}
	if _, err := BackendByName(o.Backend); err != nil {
		return err
	}
	if o.Backend == BackendLive || o.Backend == BackendNet {
		if err := validateRuntimeWorkload(o); err != nil {
			return err
		}
	}
	if o.Workload.Crashes > o.F {
		return fmt.Errorf("store: per-shard crash budget %d exceeds f=%d", o.Workload.Crashes, o.F)
	}
	// The workload spec itself is validated by Partition.
	return nil
}

// ShardResult reports one shard's run.
type ShardResult struct {
	// Shard is the shard index.
	Shard int
	// Skipped marks a shard that never ran because an earlier failure
	// aborted the run; every other field is zero. Failed marks a shard
	// that ran and failed — the error Run reports is the lowest-indexed
	// such shard's. Both are only ever set on the partial result an
	// erroring Run returns, and which shards were skipped (always a
	// subset of those above the failing index) varies with scheduling.
	Skipped bool
	Failed  bool
	// Algorithm and Condition name what ran and what was verified.
	Algorithm string
	Condition string
	// FaultSpec is the fault scenario the shard ran under ("" = fault-free)
	// and Faults aggregates the fault events its kernel applied.
	FaultSpec string
	Faults    ioa.FaultStats
	// Quiescent reports that the shard lost liveness under its faults; its
	// completed operations still passed the consistency check.
	Quiescent bool
	// PendingOps counts operations that never completed (nonzero only for
	// quiescent shards).
	PendingOps int
	// Keys is the number of distinct keys that received operations.
	Keys int
	// Writes and Reads count the shard's operations.
	Writes int
	Reads  int
	// PeakActiveWrites is the shard's measured write concurrency ν.
	PeakActiveWrites int
	// Storage is the shard kernel's running-maximum storage report.
	Storage ioa.StorageReport
	// NormalizedTotal is the shard's MaxTotalBits / log2|V|.
	NormalizedTotal float64
	// Latencies holds the shard's per-operation wall-clock durations (live
	// backend only; empty on the simulator). Like Elapsed, they vary run to
	// run and are excluded from Fingerprint.
	Latencies []time.Duration
	// OpsVerified counts operations the online checker retired as provably
	// linearized (Options.OnlineCheck runs only; zero otherwise), and
	// WindowLag is the residual window still unretired at shutdown. Both
	// depend on real-time interleaving, so they are excluded from
	// Fingerprint.
	OpsVerified int64
	WindowLag   int
}

// Result aggregates a sharded store run.
type Result struct {
	// PerShard holds every shard's result, ascending by shard index.
	PerShard []ShardResult
	// TotalWrites, TotalReads and TotalOps sum the shard loads.
	TotalWrites int
	TotalReads  int
	TotalOps    int
	// AggregateMaxTotalBits sums the per-shard total-storage high-water
	// marks — the store's metered footprint.
	AggregateMaxTotalBits int
	// MaxShardTotalBits is the largest single-shard total.
	MaxShardTotalBits int
	// MaxServerBits is the largest single-server maximum across all shards.
	MaxServerBits int
	// PeakActiveWrites sums the per-shard peaks: an upper estimate of the
	// store-level concurrent write load.
	PeakActiveWrites int
	// QuiescentShards counts shards that lost liveness under their fault
	// scenarios, and Faults sums the per-shard fault event counts.
	QuiescentShards int
	Faults          ioa.FaultStats
	// Log2V is 8*ValueBytes.
	Log2V float64
	// NormalizedTotal is AggregateMaxTotalBits / Log2V — the store-level
	// analogue of the Figure 1 y-axis (per shard, compare each shard's
	// NormalizedTotal against the bounds directly).
	NormalizedTotal float64
	// Elapsed and OpsPerSec measure wall-clock performance of the parallel
	// engine, and Workers is the effective worker count that ran the
	// shards. All three vary with the host and the requested parallelism
	// and are excluded from Fingerprint.
	Elapsed   time.Duration
	OpsPerSec float64
	Workers   int
	// LatencyP50 and LatencyP99 are nearest-rank percentiles over every
	// shard's completed-operation latencies (live backend only; zero on the
	// simulator). Excluded from Fingerprint.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
	// OpsVerified sums the per-shard online-checker retirement counts and
	// MaxWindowLag is the largest residual window across shards (online
	// check runs only). Excluded from Fingerprint.
	OpsVerified  int64
	MaxWindowLag int
}

// Fingerprint returns a hex digest of every deterministic field — per-shard
// loads, storage reports (per-server, sorted) and aggregates. Two runs of
// the same Options must produce identical fingerprints regardless of worker
// count or scheduling, which is how the engine's reproducibility is tested.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	for _, s := range r.PerShard {
		fmt.Fprintf(&b, "shard=%d alg=%s cond=%s keys=%d w=%d r=%d peak=%d total=%d maxsrv=%d norm=%.9f",
			s.Shard, s.Algorithm, s.Condition, s.Keys, s.Writes, s.Reads,
			s.PeakActiveWrites, s.Storage.MaxTotalBits, s.Storage.MaxServerBits, s.NormalizedTotal)
		fmt.Fprintf(&b, " faults=%q q=%t pending=%d drops=%d delayed=%d delaysteps=%d crashes=%d recoveries=%d servers=",
			s.FaultSpec, s.Quiescent, s.PendingOps, s.Faults.Drops, s.Faults.DelayedMessages,
			s.Faults.DelayStepsTotal, s.Faults.Crashes, s.Faults.Recoveries)
		ids := make([]int, 0, len(s.Storage.PerServerMaxBits))
		for id := range s.Storage.PerServerMaxBits {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, "%d:%d,", id, s.Storage.PerServerMaxBits[ioa.NodeID(id)])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "agg w=%d r=%d ops=%d total=%d maxshard=%d maxsrv=%d peak=%d log2v=%.1f norm=%.9f quiescent=%d drops=%d\n",
		r.TotalWrites, r.TotalReads, r.TotalOps, r.AggregateMaxTotalBits,
		r.MaxShardTotalBits, r.MaxServerBits, r.PeakActiveWrites, r.Log2V, r.NormalizedTotal,
		r.QuiescentShards, r.Faults.Drops)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Table formats the per-shard results and the aggregate as a text table.
// The verdict column reads "ok" for a live shard and "quiescent" for one
// that lost liveness under its fault scenario.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-18s %-8s %5s %6s %6s %5s %12s %10s %-22s %-9s\n",
		"shard", "algorithm", "cond", "keys", "writes", "reads", "nu", "totalbits", "normcost", "faults", "verdict")
	for _, s := range r.PerShard {
		spec := s.FaultSpec
		if spec == "" {
			spec = "-"
		}
		verdict := "ok"
		if s.Quiescent {
			verdict = "quiescent"
		}
		fmt.Fprintf(&b, "%-6d %-18s %-8s %5d %6d %6d %5d %12d %10.4f %-22s %-9s\n",
			s.Shard, s.Algorithm, s.Condition, s.Keys, s.Writes, s.Reads,
			s.PeakActiveWrites, s.Storage.MaxTotalBits, s.NormalizedTotal, spec, verdict)
	}
	fmt.Fprintf(&b, "%-6s %-18s %-8s %5s %6d %6d %5d %12d %10.4f %-22s %d quiescent\n",
		"TOTAL", "-", "-", "-", r.TotalWrites, r.TotalReads,
		r.PeakActiveWrites, r.AggregateMaxTotalBits, r.NormalizedTotal, "-", r.QuiescentShards)
	return b.String()
}

// Run partitions the workload across the shards, executes every shard on
// the selected backend under a bounded worker pool, verifies each history
// against its algorithm's consistency condition, and aggregates the shard
// results.
//
// Error surfacing is deterministic: when shards fail, Run reports the
// lowest-indexed failing shard, byte-identically at any worker count. A
// worker skips a pending shard only when a lower-indexed shard has already
// failed, so every shard below the reported index provably ran (and
// succeeded) — the reported shard is the global minimum, not an accident of
// goroutine scheduling. On failure Run returns the partial result alongside
// the error, with never-run shards explicitly marked (ShardResult.Skipped)
// and no aggregates computed.
func Run(o Options) (*Result, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	loads, err := o.Workload.Partition(o.Shards)
	if err != nil {
		return nil, err
	}
	algs := o.algorithms()
	backend, err := BackendByName(o.Backend)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > o.Shards {
		workers = o.Shards
	}

	shardResults := make([]ShardResult, o.Shards)
	shardErrs := make([]error, o.Shards)
	skipped := make([]bool, o.Shards)
	jobs := make(chan int)
	var wg sync.WaitGroup
	// minFailed tracks the lowest failing shard index so far (MaxInt64 =
	// none). Shards above it are skippable — the run's error is already
	// decided by a lower index — but shards below it must still run, since
	// any of them could fail and become the reported shard.
	var minFailed atomic.Int64
	minFailed.Store(math.MaxInt64)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if int64(i) > minFailed.Load() {
					skipped[i] = true
					continue
				}
				shardResults[i], shardErrs[i] = runShard(o, backend, algs[i%len(algs)], loads[i])
				if shardErrs[i] != nil {
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	for i := 0; i < o.Shards; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	if first := minFailed.Load(); first != math.MaxInt64 {
		i := int(first)
		partial := &Result{PerShard: shardResults, Workers: workers, Elapsed: elapsed}
		for j := range partial.PerShard {
			partial.PerShard[j].Shard = j
			partial.PerShard[j].Skipped = skipped[j]
			partial.PerShard[j].Failed = shardErrs[j] != nil
		}
		return partial, fmt.Errorf("store: shard %d (%s): %w", i, algs[i%len(algs)], shardErrs[i])
	}

	res := &Result{
		PerShard: shardResults,
		Log2V:    float64(8 * o.Workload.ValueBytes),
		Elapsed:  elapsed,
		Workers:  workers,
	}
	for _, s := range shardResults {
		res.TotalWrites += s.Writes
		res.TotalReads += s.Reads
		res.AggregateMaxTotalBits += s.Storage.MaxTotalBits
		res.PeakActiveWrites += s.PeakActiveWrites
		if s.Quiescent {
			res.QuiescentShards++
		}
		res.Faults.Add(s.Faults)
		if s.Storage.MaxTotalBits > res.MaxShardTotalBits {
			res.MaxShardTotalBits = s.Storage.MaxTotalBits
		}
		if s.Storage.MaxServerBits > res.MaxServerBits {
			res.MaxServerBits = s.Storage.MaxServerBits
		}
		res.OpsVerified += s.OpsVerified
		if s.WindowLag > res.MaxWindowLag {
			res.MaxWindowLag = s.WindowLag
		}
	}
	res.TotalOps = res.TotalWrites + res.TotalReads
	res.NormalizedTotal = float64(res.AggregateMaxTotalBits) / res.Log2V
	if secs := elapsed.Seconds(); secs > 0 {
		res.OpsPerSec = float64(res.TotalOps) / secs
	}
	var lats []time.Duration
	for _, s := range shardResults {
		lats = append(lats, s.Latencies...)
	}
	if len(lats) > 0 {
		res.LatencyP50 = workload.Percentile(lats, 0.50)
		res.LatencyP99 = workload.Percentile(lats, 0.99)
	}
	return res, nil
}

func runShard(o Options, backend Backend, alg string, load workload.ShardLoad) (ShardResult, error) {
	cl, cond, err := DeployShard(alg, o.Servers, o.F, o.Workload.TargetNu, o.Writers, o.Readers)
	if err != nil {
		return ShardResult{}, err
	}
	spec := load.Spec(o.Workload)
	plan, err := o.Workload.ShardFaultPlan(load.Shard, o.Servers, o.F)
	if err != nil {
		return ShardResult{}, err
	}
	if plan != nil {
		spec.FaultPlan = plan
	}
	opts := ShardOptions{Runtime: o.Runtime}
	if o.Telemetry != nil {
		// Each shard gets its own RunTelemetry value into one shared
		// registry; the shard label keeps the series apart.
		opts.Runtime.Telemetry = &telemetry.RunTelemetry{Registry: o.Telemetry, Shard: load.Shard}
	}
	// Online mode streams settled operations into the checker while the
	// concurrent backends run; the verdict and the verified-frontier metrics
	// are ready the moment the run stops. Only the atomic condition has the
	// windowed decomposition; regular-condition shards keep the offline path.
	var checker *consistency.OnlineChecker
	online := o.OnlineCheck && !o.SkipCheck && cond == "atomic"
	if online && backend.Name() != BackendSim {
		checker = consistency.NewOnlineChecker(nil, consistency.WithWindowOps(o.OnlineWindow))
		opts.Runtime.Sink = checker
		// The drivers sync (drain + barrier) every window's worth of issued
		// operations unless the caller tuned SyncOps themselves: each sync is
		// a clean cut, so the checker's peak window is bounded by roughly the
		// retirement window plus the in-flight population, by construction.
		if opts.Runtime.SyncOps == 0 {
			opts.Runtime.SyncOps = o.OnlineWindow
			if opts.Runtime.SyncOps <= 0 {
				opts.Runtime.SyncOps = consistency.DefaultWindowOps
			}
		}
	}
	wres, err := backend.RunShard(cl, spec, opts)
	if err != nil {
		return ShardResult{}, err
	}
	// Safety must hold whatever the faults did: the completed operations of
	// even a quiescent shard are checked against the algorithm's condition
	// (unless the caller opted out to measure unchecked throughput).
	var opsVerified int64
	var windowLag int
	switch {
	case o.SkipCheck:
	case checker != nil:
		// The runtime's flush already pushed the pending tail into the
		// checker, so Result needs no extras here.
		if err := checker.Result(); err != nil {
			return ShardResult{}, fmt.Errorf("consistency (%s, online): %w", cond, err)
		}
		opsVerified = checker.OpsVerified()
		windowLag = checker.WindowLag()
	default:
		if err := wres.CheckConsistency(cond); err != nil {
			return ShardResult{}, fmt.Errorf("consistency (%s): %w", cond, err)
		}
		if online {
			// Simulator shards hold the full history and check it offline;
			// every completed operation is verified.
			opsVerified = int64(len(wres.History.Ops) - len(wres.History.PendingOps()))
		}
	}
	return ShardResult{
		Shard:            load.Shard,
		Algorithm:        alg,
		Condition:        cond,
		FaultSpec:        o.Workload.ShardFault(load.Shard),
		Faults:           wres.Faults,
		Quiescent:        wres.Quiescent,
		PendingOps:       len(wres.History.PendingOps()),
		Keys:             load.DistinctKeys(),
		Writes:           load.Writes,
		Reads:            load.Reads,
		PeakActiveWrites: wres.PeakActiveWrites,
		Storage:          wres.Storage,
		NormalizedTotal:  wres.NormalizedTotal,
		Latencies:        wres.Latencies,
		OpsVerified:      opsVerified,
		WindowLag:        windowLag,
	}, nil
}

// DeployShard builds one shard's cluster with the engine's client-count
// defaulting: explicit counts when writers or readers is set (zero defaults
// to one), DeployAlgorithm's per-algorithm shapes sized for nu when both
// are zero. The batch engine and the session layer share this rule.
func DeployShard(alg string, n, f, nu, writers, readers int) (*cluster.Cluster, string, error) {
	if writers == 0 && readers == 0 {
		return DeployAlgorithm(alg, n, f, nu)
	}
	if writers == 0 {
		writers = 1
	}
	if readers == 0 {
		readers = 1
	}
	return DeployAlgorithmSized(alg, n, f, writers, readers)
}
