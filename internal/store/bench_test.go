package store

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// BenchmarkSimBatch is one batch of the benchmark's simulator grid through
// Run, the call behind Store.RunMulti: four shards of five servers (f = 1)
// cycling casgc and abd-mwmr under no fault, a crash, a partition and
// message delay, 1 KiB values on 64 zipf keys, every shard checked offline.
// An iteration is a 2,000-operation batch, so its allocations are the
// kernel's steps, the automata's messages and the histories the check
// reads; ns/simop is the wall time per operation.
func BenchmarkSimBatch(b *testing.B) {
	cfg := Config{
		Algorithms: []string{AlgCASGC, AlgABDMW},
		Faults:     []string{"none", "crash-f@10", "partition@40:4000", "delay=1:16"},
		Servers:    5,
		F:          1,
		Shards:     4,
		Backend:    "sim",
		Seed:       1,
		Workers:    runtime.NumCPU(),
	}
	spec := workload.MultiSpec{
		Seed: 1, Keys: 64, Ops: 2000, ReadFraction: 0.3, Skew: "zipf",
		TargetNu: 2, ValueBytes: 1 << 10,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalOps != spec.Ops {
			b.Fatalf("batch ran %d operations, want %d", res.TotalOps, spec.Ops)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.Ops), "ns/simop")
}
