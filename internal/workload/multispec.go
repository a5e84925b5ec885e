package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/faults"
)

// Key-popularity skews accepted by MultiSpec.Skew.
const (
	SkewUniform = "uniform"
	SkewZipf    = "zipf"
)

// MultiSpec describes a seeded workload over a multi-key keyspace served by
// a sharded store. Keys are hashed onto shards (see KeyShard); each
// operation picks a key according to the configured popularity skew and
// becomes a read or a write according to the key's read fraction. The store
// partitions a MultiSpec into one single-register Spec per shard, so every
// shard replays its slice of the keyspace load deterministically.
type MultiSpec struct {
	// Seed makes the partition and every derived per-shard run reproducible.
	Seed int64
	// Keys is the keyspace size.
	Keys int
	// Ops is the total number of operations issued across all keys.
	Ops int
	// ReadFraction is the probability an operation is a read (the rest are
	// writes). Per-key overrides in PerKeyReads take precedence.
	ReadFraction float64
	// PerKeyReads optionally overrides ReadFraction for individual keys,
	// expressing a per-key read/write mix (e.g. a write-hot key 0 amid a
	// read-mostly keyspace).
	PerKeyReads map[int]float64
	// Skew selects the key-popularity distribution: SkewUniform (default)
	// or SkewZipf.
	Skew string
	// ZipfS is the Zipf exponent (> 1). Zero selects the default 1.2.
	ZipfS float64
	// TargetNu is the per-shard target write concurrency, as in Spec.
	TargetNu int
	// ValueBytes is the size of each written value.
	ValueBytes int
	// Crashes is the per-shard random server crash budget.
	Crashes int
	// MaxSteps bounds deliveries per shard (default as in Spec).
	MaxSteps int
	// Faults assigns a fault scenario per shard, cycling when shorter than
	// the shard count exactly as store.Config.Algorithms does (shard i runs
	// Faults[i mod len]); "" or "none" leaves a shard fault-free. Specs
	// follow the grammar of internal/faults.Parse (e.g. "crash-f",
	// "partition@40:4000", "lossy=0.02+delay=1:20"), so one store run can
	// mix scenarios — a partitioned shard next to a lossy one.
	Faults []string
}

const defaultZipfS = 1.2

func (m MultiSpec) zipfS() float64 {
	if m.ZipfS != 0 {
		return m.ZipfS
	}
	return defaultZipfS
}

// Validate checks the multi-key spec in isolation (cluster-dependent checks
// happen per shard when the derived Specs run).
func (m MultiSpec) Validate() error {
	if m.Keys < 1 {
		return fmt.Errorf("workload: Keys must be >= 1")
	}
	if m.Ops < 0 {
		return fmt.Errorf("workload: negative op count")
	}
	if m.ReadFraction < 0 || m.ReadFraction > 1 {
		return fmt.Errorf("workload: ReadFraction %v outside [0,1]", m.ReadFraction)
	}
	for k, rf := range m.PerKeyReads {
		if k < 0 || k >= m.Keys {
			return fmt.Errorf("workload: PerKeyReads key %d outside keyspace [0,%d)", k, m.Keys)
		}
		if rf < 0 || rf > 1 {
			return fmt.Errorf("workload: PerKeyReads[%d] = %v outside [0,1]", k, rf)
		}
	}
	switch m.Skew {
	case "", SkewUniform, SkewZipf:
	default:
		return fmt.Errorf("workload: unknown skew %q", m.Skew)
	}
	if m.ZipfS != 0 && m.ZipfS <= 1 {
		return fmt.Errorf("workload: ZipfS must be > 1 (got %v)", m.ZipfS)
	}
	if m.TargetNu < 1 {
		return fmt.Errorf("workload: TargetNu must be >= 1")
	}
	if m.ValueBytes < 8 {
		return fmt.Errorf("workload: ValueBytes must be >= 8 (value uniqueness header)")
	}
	if m.Crashes < 0 {
		return fmt.Errorf("workload: negative crash budget")
	}
	for i, spec := range m.Faults {
		if _, err := faults.Parse(spec); err != nil {
			return fmt.Errorf("workload: Faults[%d]: %w", i, err)
		}
	}
	return nil
}

// ShardFault returns the fault scenario spec assigned to the shard ("" when
// the spec declares no faults), cycling the Faults list per shard.
func (m MultiSpec) ShardFault(shard int) string {
	if len(m.Faults) == 0 {
		return ""
	}
	return m.Faults[shard%len(m.Faults)]
}

// faultSeedSalt decorrelates a shard's fault-decision stream from its
// workload stream: both derive from (Seed, shard) via ShardSeed, and without
// a salt the fault plan would hash the same values the workload rng draws.
const faultSeedSalt = 0x7fa17b1a5

// ShardFaultPlan builds the shard's fault plan for an (n, f) deployment, or
// nil when the shard is fault-free. The plan's seed derives from (Seed,
// shard) so same-seed runs replay identical faults on every shard at any
// worker count.
func (m MultiSpec) ShardFaultPlan(shard, n, f int) (*faults.Plan, error) {
	spec := m.ShardFault(shard)
	sc, err := faults.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("workload: shard %d faults: %w", shard, err)
	}
	if sc == nil {
		return nil, nil
	}
	plan, err := sc.Build(n, f, ShardSeed(m.Seed^faultSeedSalt, shard))
	if err != nil {
		return nil, fmt.Errorf("workload: shard %d faults %q: %w", shard, spec, err)
	}
	return plan, nil
}

func (m MultiSpec) readFraction(key int) float64 {
	if rf, ok := m.PerKeyReads[key]; ok {
		return rf
	}
	return m.ReadFraction
}

// ShardLoad is the slice of a MultiSpec that lands on one shard.
type ShardLoad struct {
	// Shard is the shard index.
	Shard int
	// Writes and Reads count the operations routed to this shard.
	Writes int
	Reads  int
	// KeyOps counts operations per key among the keys owned by the shard
	// (only keys that received at least one op appear).
	KeyOps map[int]int
}

// DistinctKeys reports how many distinct keys received operations.
func (l ShardLoad) DistinctKeys() int { return len(l.KeyOps) }

// Spec derives the single-register workload spec that replays this shard's
// load, seeded independently per shard so parallel shard execution stays
// reproducible.
func (l ShardLoad) Spec(m MultiSpec) Spec {
	return Spec{
		Seed:       ShardSeed(m.Seed, l.Shard),
		Writes:     l.Writes,
		Reads:      l.Reads,
		TargetNu:   m.TargetNu,
		ValueBytes: m.ValueBytes,
		Crashes:    m.Crashes,
		MaxSteps:   m.MaxSteps,
	}
}

// Partition deterministically routes the multi-key load onto shards: each
// operation samples a key from the skew distribution, the key's shard is
// KeyShard(key, shards), and the key's read fraction decides the operation
// kind.
func (m MultiSpec) Partition(shards int) ([]ShardLoad, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("workload: shards must be >= 1")
	}
	rng := rand.New(rand.NewSource(m.Seed))
	var zipf *rand.Zipf
	if m.Skew == SkewZipf {
		zipf = rand.NewZipf(rng, m.zipfS(), 1, uint64(m.Keys-1))
	}
	loads := make([]ShardLoad, shards)
	for i := range loads {
		loads[i] = ShardLoad{Shard: i, KeyOps: make(map[int]int)}
	}
	for op := 0; op < m.Ops; op++ {
		var key int
		if zipf != nil {
			key = int(zipf.Uint64())
		} else {
			key = rng.Intn(m.Keys)
		}
		l := &loads[KeyShard(key, shards)]
		l.KeyOps[key]++
		if rng.Float64() < m.readFraction(key) {
			l.Reads++
		} else {
			l.Writes++
		}
	}
	return loads, nil
}

// KeyShard deterministically maps a key to a shard. The key is bit-mixed
// before reduction so that adjacent keys land on unrelated shards: under
// Zipf skew popularity decreases monotonically with key index, and a plain
// key-mod-shards routing would pile every hot key onto the lowest shards.
func KeyShard(key, shards int) int {
	z := uint64(key)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int(z % uint64(shards))
}

// ShardSeed derives an independent deterministic seed for a shard from the
// base workload seed, using a splitmix64 step so neighbouring shards get
// uncorrelated streams.
func ShardSeed(base int64, shard int) int64 {
	z := uint64(base) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
