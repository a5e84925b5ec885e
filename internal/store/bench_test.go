package store

import (
	goruntime "runtime"
	"testing"

	"repro/internal/runtime"
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
		Workers:    goruntime.NumCPU(),
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

// BenchmarkLiveBatch is BenchmarkSimBatch's twin on the live backend: one
// batch of the benchmark's live-abd-64b-pipe shape through Run — abd-mwmr on
// five servers (f = 1), two writers and two readers each keeping 8
// operations in flight, 64 B values, every settled operation streamed into
// the online checker. An iteration is an 8,000-operation batch on fresh
// node goroutines, so ns/liveop is the mailbox hop, the automaton step and
// the checker per operation, plus the batch's share of setting a cluster up.
func BenchmarkLiveBatch(b *testing.B) { benchWallClockBatch(b, BackendLive, 8000, "ns/liveop") }

// BenchmarkNetBatch is BenchmarkLiveBatch's twin on the net backend, the
// shape of net-abd-64b-pipe: the same batch of 10,000 operations, every
// message framed and carried over loopback TCP, so ns/netop adds the wire
// encoding and the socket writes and reads to the live path.
func BenchmarkNetBatch(b *testing.B) { benchWallClockBatch(b, BackendNet, 10000, "ns/netop") }

// benchWallClockBatch runs one pipelined abd-mwmr batch of ops operations
// per iteration on a wall-clock backend and reports the time per operation
// in unit.
func benchWallClockBatch(b *testing.B, backend string, ops int, unit string) {
	cfg, err := Config{
		Algorithms:  []string{AlgABDMW},
		Servers:     5,
		F:           1,
		Writers:     2,
		Readers:     2,
		Backend:     backend,
		Seed:        1,
		Net:         runtime.Config{Pipeline: 8},
		OnlineCheck: true,
	}.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.MultiSpec{
		Seed: 1, Keys: 64, Ops: ops, ReadFraction: 0.3, TargetNu: 2, ValueBytes: 64,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalOps != spec.Ops || res.QuiescentShards != 0 {
			b.Fatalf("batch ran %d operations with %d quiescent shards, want %d and none",
				res.TotalOps, res.QuiescentShards, spec.Ops)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spec.Ops), unit)
}
