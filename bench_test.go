package shmem

// The benchmark harness regenerates every evaluation artifact of the paper
// (see DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
// the recorded results):
//
//	E1 BenchmarkFigure1Series        — Figure 1 series generation
//	E2 BenchmarkE2ClassicalComparison— replication vs erasure at nu=1
//	E3 BenchmarkE3StorageVsNu        — CASGC storage growth with nu + ABD flat line
//	E4 BenchmarkE4SingletonBound     — Solo register meets Theorem B.1
//	E5 BenchmarkE5Theorem41Proof     — executable Theorem 4.1 proof
//	E6 BenchmarkE6BoundSweep         — bound evaluation across parameters
//	E7 BenchmarkE7RestrictedClass    — executable Theorem 6.5 experiment
//	E8 (shmem bounds -summary)       — Section 7 summary (not timed)
//
// These are the paper-reproduction experiments. Performance is measured by
// the repository benchmark instead (BENCHMARK.json, bench/) and by the
// hot-path micro-benchmarks next to the code they time (make bench-micro).
//
// Custom metrics (b.ReportMetric) carry the experiment's headline numbers so
// that bench output doubles as the results record: "normcost" is total
// storage normalized by log2|V|, directly comparable to Figure 1's y-axis.

import (
	"context"
	"fmt"
	"testing"
)

// withStore runs one experiment iteration against a fresh one-shard simulator
// store of the algorithm, with the given writer count and one reader.
func withStore(b *testing.B, alg string, n, f, writers int, iteration func(*Store)) {
	b.Helper()
	st, err := Open(Config{Algorithms: []string{alg}, Servers: n, F: f}, WithClients(writers, 1))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	iteration(st)
}

// E1: Figure 1 series generation at the paper's parameters.
func BenchmarkFigure1Series(b *testing.B) {
	p := Params{N: 21, F: 10}
	var rows []Figure1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Figure1(p, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].TheoremB1, "B1@nu1")
	b.ReportMetric(rows[1].Theorem51, "T51@nu1")
	b.ReportMetric(rows[11].Theorem65, "T65@nu11")
	b.ReportMetric(rows[11].ABD, "ABD")
}

// E2: the classical (nu=1) comparison of Section 2.1 — replication stores
// ~N·log|V| total while the coded register stores ~N/(N-f)·log|V|.
func BenchmarkE2ClassicalComparison(b *testing.B) {
	const n, f, valBytes = 8, 2, 4096
	log2V := float64(8 * valBytes)
	var abdNorm, soloNorm float64
	writeOnce := func(alg string) (norm float64) {
		withStore(b, alg, n, f, 1, func(st *Store) {
			if err := st.Put(context.Background(), 0, MakeValue(valBytes, 1)); err != nil {
				b.Fatal(err)
			}
			norm = float64(st.Metrics().AggregateMaxTotalBits) / log2V
		})
		return norm
	}
	for i := 0; i < b.N; i++ {
		abdNorm = writeOnce("abd")
		soloNorm = writeOnce("solo")
	}
	p := Params{N: n, F: f}
	b.ReportMetric(abdNorm, "replication_normcost")
	b.ReportMetric(soloNorm, "erasure_normcost")
	b.ReportMetric(SingletonTotalBits(p, log2V)/log2V, "singleton_bound")
}

// E3: storage versus write concurrency. CASGC grows ~linearly in nu while
// ABD stays flat — the central storytelling of Section 2.3 and Figure 1.
func BenchmarkE3StorageVsNu(b *testing.B) {
	const n, f, valBytes = 9, 2, 1024
	for _, nu := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("casgc/nu=%d", nu), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				withStore(b, "casgc", n, f, nu, func(st *Store) {
					res, err := st.RunWorkload(WorkloadSpec{
						Seed: 7, Writes: 5 * nu, Reads: 2, TargetNu: nu, ValueBytes: valBytes,
					})
					if err != nil {
						b.Fatal(err)
					}
					norm = res.NormalizedTotal
				})
			}
			b.ReportMetric(norm, "normcost")
			b.ReportMetric(Theorem65TotalBits(Params{N: n, F: f}, nu, float64(8*valBytes))/float64(8*valBytes), "T65_bound")
		})
	}
	b.Run("abd/nu=3", func(b *testing.B) {
		var norm float64
		for i := 0; i < b.N; i++ {
			withStore(b, "abd-mwmr", n, f, 3, func(st *Store) {
				res, err := st.RunWorkload(WorkloadSpec{
					Seed: 7, Writes: 15, Reads: 2, TargetNu: 3, ValueBytes: valBytes,
				})
				if err != nil {
					b.Fatal(err)
				}
				norm = res.NormalizedTotal
			})
		}
		b.ReportMetric(norm, "normcost")
	})
}

// E4: the Solo register meets the Theorem B.1 bound with equality (up to
// metadata) in the Appendix B execution family.
func BenchmarkE4SingletonBound(b *testing.B) {
	const n, f, valBytes = 8, 2, 4096
	log2V := float64(8 * valBytes)
	var norm float64
	for i := 0; i < b.N; i++ {
		withStore(b, "solo", n, f, 1, func(st *Store) {
			ctx := context.Background()
			if err := st.Put(ctx, 0, MakeValue(valBytes, 9)); err != nil {
				b.Fatal(err)
			}
			if _, err := st.Get(ctx, 0); err != nil {
				b.Fatal(err)
			}
			norm = float64(st.Metrics().PerShard[0].Storage.CurrentTotalBits) / log2V
		})
	}
	b.ReportMetric(norm, "normcost")
	b.ReportMetric(SingletonTotalBits(Params{N: n, F: f}, log2V)/log2V, "B1_bound")
}

// E5: the executable Theorem 4.1 proof (critical pairs + injectivity) on
// the two-version coded register.
func BenchmarkE5Theorem41Proof(b *testing.B) {
	cfg := ProofConfig{Build: Builder("twoversion", 5, 2, 1), FailServers: []int{3, 4}}
	vals := [][]byte{MakeValue(16, 1), MakeValue(16, 2), MakeValue(16, 3)}
	var res *Theorem41Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = cfg.RunTheorem41(vals)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DistinctVectors), "distinct_vectors")
	b.ReportMetric(res.WitnessedBitsLowerBound, "witnessed_bits")
}

// E6: bound evaluation across a parameter sweep (the numeric work behind
// any re-plot of Figure 1 at other N, f).
func BenchmarkE6BoundSweep(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for n := 3; n <= 30; n++ {
			for f := 0; 2*f+1 <= n; f++ {
				p := Params{N: n, F: f}
				sink += SingletonTotalBits(p, 1024)
				sink += Theorem41TotalBits(p, 1024)
				sink += Theorem51TotalBits(p, 1024)
				for nu := 1; nu <= 8; nu++ {
					sink += Theorem65TotalBits(p, nu, 1024)
				}
			}
		}
	}
	_ = sink
}

// E7: the executable Theorem 6.5 experiment on CAS.
func BenchmarkE7RestrictedClass(b *testing.B) {
	cfg := ProofConfig{Build: Builder("cas", 5, 2, 2), FailServers: []int{4}}
	vectors := [][][]byte{
		{MakeValue(16, 1), MakeValue(16, 2)},
		{MakeValue(16, 3), MakeValue(16, 4)},
		{MakeValue(16, 5), MakeValue(16, 6)},
	}
	var res *Theorem65Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = cfg.RunTheorem65(vectors)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PrefixServers), "prefix_servers")
	b.ReportMetric(float64(res.VectorsDistinct), "distinct_vectors")
}
