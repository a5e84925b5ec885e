// Criticalpoint runs the paper's Theorem 4.1 proof, live, against the
// two-version erasure-coded regular register: it constructs the two-write
// executions alpha^(v1,v2), probes every point for valency by silencing the
// writer and running a read, locates the critical pair where the witnessed
// value flips from v1 to v2, and verifies the counting facts (at most one
// server changes between the critical points; distinct value pairs leave
// distinct server states).
package main

import (
	"fmt"
	"log"

	shmem "repro"
)

func main() {
	const n, f = 5, 2
	cfg := shmem.ProofConfig{
		Build:       shmem.Builder("twoversion", n, f, 1),
		FailServers: []int{3, 4}, // the proof fails f servers at the start
	}

	values := [][]byte{
		shmem.MakeValue(16, 1),
		shmem.MakeValue(16, 2),
		shmem.MakeValue(16, 3),
		shmem.MakeValue(16, 4),
	}

	fmt.Printf("executable Theorem 4.1 proof: two-version coded register, N=%d f=%d |V|=%d\n\n", n, f, len(values))

	// Walk one pair in detail.
	tw, err := cfg.RunTwoWrites(values[0], values[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("execution alpha^(v1,v2) has %d points (P_0 after write-1 terminates, P_%d after write-2)\n",
		len(tw.Points), len(tw.Points)-1)
	cp, err := cfg.FindCriticalPair(tw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("critical pair at points (P_%d, P_%d):\n", cp.Index, cp.Index+1)
	fmt.Printf("  probe at Q1 returns v1, probe at Q2 returns v2: %v\n", string(cp.ProbeQ2) != string(cp.ProbeQ1))
	fmt.Printf("  live servers: %v\n", cp.Live)
	fmt.Printf("  servers changed between Q1 and Q2 (Lemma 4.8 says <= 1): %d\n", cp.NumChanged)

	// The full counting argument over all ordered pairs.
	res, err := cfg.RunTheorem41(values)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninjectivity over all %d ordered pairs: %v (%d distinct state vectors)\n",
		res.Pairs, res.Injective, res.DistinctVectors)
	fmt.Printf("certified counting bound: prod|S_n| x (N-f) x max|S_n| >= |V|(|V|-1) = %d\n", res.Pairs)
	fmt.Printf("=> the Theorem 4.1 inequality holds for this algorithm with %.3f witnessed bits\n",
		res.WitnessedBitsLowerBound)
}
