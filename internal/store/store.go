package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/ioa"
	"repro/internal/workload"
)

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
	// and net backends only; empty on the simulator). Like Elapsed, they vary run to
	// run and are excluded from Fingerprint.
	Latencies []time.Duration
	// OpsVerified counts operations the online checker retired as provably
	// correct under the shard's condition (Config.OnlineCheck runs only;
	// zero otherwise), and
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
	// shard's completed-operation latencies (live and net backends only;
	// zero on the simulator). Excluded from Fingerprint.
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
// the same Config and workload must produce identical fingerprints regardless of worker
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

// Run partitions the workload across the resolved config's shards (see
// Config.Resolve), executes every shard on fresh clusters on the configured
// backend under a bounded worker pool, verifies each history against its
// algorithm's consistency condition, and aggregates the shard results. The
// config's fault scenarios apply unless the workload carries its own.
//
// Error surfacing is deterministic: when shards fail, Run reports the
// lowest-indexed failing shard, byte-identically at any worker count. A
// worker skips a pending shard only when a lower-indexed shard has already
// failed, so every shard below the reported index provably ran (and
// succeeded) — the reported shard is the global minimum, not an accident of
// goroutine scheduling. On failure Run returns the partial result alongside
// the error, with never-run shards explicitly marked (ShardResult.Skipped)
// and no aggregates computed.
func Run(c Config, m workload.MultiSpec) (*Result, error) {
	if len(m.Faults) == 0 {
		m.Faults = c.Faults
	}
	if err := validateWorkload(c, m); err != nil {
		return nil, err
	}
	loads, err := m.Partition(c.Shards)
	if err != nil {
		return nil, err
	}
	backend, err := BackendByName(c.Backend)
	if err != nil {
		return nil, err
	}
	workers := c.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > c.Shards {
		workers = c.Shards
	}

	shardResults := make([]ShardResult, c.Shards)
	shardErrs := make([]error, c.Shards)
	skipped := make([]bool, c.Shards)
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
				shardResults[i], shardErrs[i] = runShard(c, m, backend, loads[i])
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
	for i := 0; i < c.Shards; i++ {
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
		return partial, fmt.Errorf("store: shard %d (%s): %w", i, c.Algorithms[i%len(c.Algorithms)], shardErrs[i])
	}

	res := &Result{
		PerShard: shardResults,
		Log2V:    float64(8 * m.ValueBytes),
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

func runShard(c Config, m workload.MultiSpec, backend Backend, load workload.ShardLoad) (ShardResult, error) {
	alg := c.Algorithms[load.Shard%len(c.Algorithms)]
	cl, cond, err := DeployShard(alg, c.Servers, c.F, m.TargetNu, c.Writers, c.Readers)
	if err != nil {
		return ShardResult{}, err
	}
	spec := load.Spec(m)
	plan, err := m.ShardFaultPlan(load.Shard, c.Servers, c.F)
	if err != nil {
		return ShardResult{}, err
	}
	if plan != nil {
		spec.FaultPlan = plan
	}
	opts := c.Shard(load.Shard, false)
	// Online mode streams settled operations into a checker for the shard's
	// condition while the concurrent backends run; the verdict and the
	// verified-frontier metrics are ready the moment the run stops.
	var checker *consistency.OnlineChecker
	online := c.OnlineCheck && !c.SkipCheck
	if online && backend.Name() != BackendSim {
		checker = consistency.NewOnlineChecker(nil, consistency.WithWindowOps(c.OnlineWindow), consistency.WithCondition(cond))
		// The runtime reads the checker's window as its sync period: the
		// drivers drain and meet at a barrier every window's worth of issued
		// operations, so each window gets a clean cut to retire at.
		opts.Sink = checker
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
	case c.SkipCheck:
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
		FaultSpec:        m.ShardFault(load.Shard),
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

// DeployShard builds one shard's cluster for the named algorithm with n
// servers tolerating f crashes, and returns it with the consistency condition
// the algorithm guarantees ("atomic" or "regular"). Explicit client counts
// win when writers or readers is set (zero defaults to one). When both are
// zero the shape is per algorithm, sized for the target write concurrency
// nu: the multi-writer algorithms get max(nu, 1) writers and two readers,
// abd one writer and two readers, and the SWSR registers (twoversion,
// twoversion-gossip, solo) one of each. The batch engine and the session
// layer share this rule.
func DeployShard(alg string, n, f, nu, writers, readers int) (*cluster.Cluster, string, error) {
	switch {
	case writers == 0 && readers == 0:
		writers, readers = max(nu, 1), 2
		switch alg {
		case AlgABD:
			writers = 1
		case AlgTwoVersion, AlgTwoVersionGossip, AlgSolo:
			writers, readers = 1, 1
		}
	case writers == 0:
		writers = 1
	case readers == 0:
		readers = 1
	}
	return DeployAlgorithmSized(alg, n, f, writers, readers)
}
