// Command storagesim runs a register-emulation algorithm under a seeded
// workload with a target write concurrency, meters its storage, checks the
// history's consistency, and compares the measured cost against every
// applicable lower bound.
//
// Usage:
//
//	storagesim -alg casgc -n 9 -f 2 -nu 3 -writes 15 -valuebytes 1024
//	storagesim -alg abd -n 5 -f 2 -nu 2
package main

import (
	"flag"
	"fmt"
	"os"

	shmem "repro"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "storagesim:", err)
		os.Exit(1)
	}
}

func run() error {
	alg := flag.String("alg", "casgc", "algorithm: abd | abd-mwmr | cas | casgc | twoversion | twoversion-gossip | solo")
	n := flag.Int("n", 9, "number of servers N")
	f := flag.Int("f", 2, "tolerated server failures f")
	nu := flag.Int("nu", 2, "target concurrent writes")
	writes := flag.Int("writes", 10, "total writes")
	reads := flag.Int("reads", 4, "total reads")
	valueBytes := flag.Int("valuebytes", 1024, "bytes per written value")
	seed := flag.Int64("seed", 1, "workload seed")
	crashes := flag.Int("crashes", 0, "random server crashes during the run")
	flag.Parse()

	// The store handle does not expose a cluster's write profile, which the
	// Theorem 6.5 line below reads, so this command deploys the cluster itself
	// — through the same Config validation Open applies.
	cfg, err := store.Config{Algorithms: []string{*alg}, Servers: *n, F: *f}.Resolve()
	if err != nil {
		return err
	}
	cl, cond, err := store.DeployAlgorithm(*alg, cfg.Servers, cfg.F, *nu)
	if err != nil {
		return err
	}
	res, err := workload.Run(cl, workload.Spec{
		Seed: *seed, Writes: *writes, Reads: *reads, TargetNu: *nu,
		ValueBytes: *valueBytes, Crashes: *crashes,
	})
	if err != nil {
		return err
	}
	if err := res.CheckConsistency(cond); err != nil {
		return fmt.Errorf("consistency check (%s) FAILED: %w", cond, err)
	}
	p := shmem.Params{N: cfg.Servers, F: cfg.F}
	log2V := res.Log2V
	fmt.Printf("algorithm        : %s (write profile: %d phases)\n", cl.Name, len(cl.Profile.Phases))
	fmt.Printf("configuration    : N=%d f=%d target-nu=%d log2|V|=%.0f\n", p.N, p.F, *nu, log2V)
	fmt.Printf("operations       : %d (peak active writes %d)\n", len(res.History.Ops), res.PeakActiveWrites)
	fmt.Printf("consistency      : %s OK\n", cond)
	fmt.Printf("max total storage: %d bits (normalized %.4f)\n", res.Storage.MaxTotalBits, res.NormalizedTotal)
	fmt.Printf("max server       : %d bits\n", res.Storage.MaxServerBits)
	fmt.Println("\nlower bounds (normalized):")
	fmt.Printf("  Theorem B.1: %8.4f\n", shmem.SingletonTotalBits(p, log2V)/log2V)
	fmt.Printf("  Theorem 5.1: %8.4f\n", shmem.Theorem51TotalBits(p, log2V)/log2V)
	if err := cl.Profile.Theorem65Applies(); err == nil {
		fmt.Printf("  Theorem 6.5: %8.4f (at measured nu=%d; applies: single value-dependent phase)\n",
			shmem.Theorem65TotalBits(p, res.PeakActiveWrites, log2V)/log2V, res.PeakActiveWrites)
	} else {
		fmt.Printf("  Theorem 6.5: not applicable: %v\n", err)
	}
	return nil
}
