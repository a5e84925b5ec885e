package session

import (
	"context"
	"testing"

	"repro/internal/register"
	"repro/internal/store"
)

// BenchmarkInteractiveSim measures one interactive Put/Get pair of 1 KiB on
// a standing 4-shard simulator store — the shards of the benchmark's
// simulator grid (casgc and abd-mwmr under no fault, a crash, a partition
// and message delay), so an iteration pays the kernel's steps, the session's
// record and the online checker's observe. Its memory is the shard state:
// nothing grows with b.N.
func BenchmarkInteractiveSim(b *testing.B) {
	st, err := Open(store.Config{
		Algorithms: []string{store.AlgCASGC, store.AlgABDMW},
		Faults:     []string{"none", "crash-f@10", "partition@40:4000", "delay=1:16"},
		Shards:     4,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	b.SetBytes(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := i % 64
		if err := st.Put(ctx, key, register.MakeValue(1<<10, uint64(i+1))); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Get(ctx, key); err != nil {
			b.Fatal(err)
		}
	}
}
