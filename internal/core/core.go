// Package core implements the paper's primary contribution: the
// information-theoretic storage-cost lower bounds of
//
//	Cadambe, Wang, Lynch, "Information-Theoretic Lower Bounds on the
//	Storage Cost of Shared Memory Emulation" (PODC 2016).
//
// Four bounds are provided, each in two forms:
//
//   - The EXACT finite-|V| form, as stated in the theorems, parameterized by
//     log2|V| (so |V| may be astronomically large without overflow).
//   - The NORMALIZED asymptotic form (total storage / log2|V| as |V| -> inf)
//     that Figure 1 plots.
//
// The bounds:
//
//	Theorem B.1 / Corollary B.2 ("Singleton"):
//	    TotalStorage >= N·log2|V| / (N-f).
//	Theorem 4.1 / Corollary 4.2 (no server gossip):
//	    TotalStorage >= N·(log2|V| + log2(|V|-1) - log2(N-f)) / (N-f+1).
//	Theorem 5.1 / Corollary 5.2 (universal, gossip allowed):
//	    TotalStorage >= N·(log2|V| + log2(|V|-1) - 2·log2(N-f)) / (N-f+2).
//	Theorem 6.5 / Corollary 6.6 (single value-dependent write phase):
//	    with ν* = min(ν, f+1),
//	    Σ_{n in subset} log2|S_n| >= log2 C(|V|-1, ν*)
//	                                 - ν*·log2(N-f+ν*-1) - log2(ν*!),
//	    TotalStorage >= ν*·N/(N-f+ν*-1) · log2|V| - o(log2|V|).
//
// Upper bounds for comparison (Figure 1): replication/ABD at f+1 and
// erasure-coded algorithms at ν·N/(N-f), both normalized.
package core

import (
	"fmt"
	"math"
)

// Params identifies a system configuration: N servers of which f may crash.
type Params struct {
	N int // number of servers
	F int // tolerated crash failures
}

// Validate checks 0 <= f < N.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("core: need at least one server, got N=%d", p.N)
	}
	if p.F < 0 || p.F >= p.N {
		return fmt.Errorf("core: need 0 <= f < N, got N=%d f=%d", p.N, p.F)
	}
	return nil
}

// --- helpers on log2-scale quantities ---

// Log2Pow2Minus1 returns log2(2^b - 1) for b > 0 without overflow: for large
// b it is b up to an error below 2^-b/ln2.
func Log2Pow2Minus1(b float64) float64 {
	if b <= 0 {
		return math.Inf(-1)
	}
	if b > 45 {
		// log2(2^b - 1) = b + log2(1 - 2^-b); the correction term is below
		// 1e-13 bits, far under the resolution of any storage measurement.
		return b
	}
	return math.Log2(math.Exp2(b) - 1)
}

// Log2Factorial returns log2(m!).
func Log2Factorial(m int) float64 {
	if m < 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(m) + 1)
	return lg / math.Ln2
}

// Log2BinomPow2 returns log2 C(2^b - 1, m): the binomial coefficient of the
// Theorem 6.5 counting argument, with the population 2^b - 1 given on the
// log2 scale. It uses the termwise expansion
// log2 Π_{i=0..m-1}(A-i) - log2 m! with A = 2^b - 1, which is numerically
// stable (no lgamma cancellation) and collapses to m·b - log2 m! when b is
// large.
func Log2BinomPow2(b float64, m int) float64 {
	if m < 0 {
		return math.Inf(-1)
	}
	if m == 0 {
		return 0
	}
	if b <= 0 {
		return math.Inf(-1)
	}
	if b >= 500 {
		// A - i is indistinguishable from 2^b at float64 precision.
		return float64(m)*b - Log2Factorial(m)
	}
	a := math.Exp2(b) - 1
	if float64(m) > a {
		return math.Inf(-1)
	}
	sum := 0.0
	for i := 0; i < m; i++ {
		sum += math.Log2(a - float64(i))
	}
	return sum - Log2Factorial(m)
}

// --- Theorem B.1 (Appendix B): the Singleton-style bound ---

// SingletonTotalBits returns the Corollary B.2 bound on TotalStorage:
// N·log2|V|/(N-f) bits, from the Theorem B.1 bound of log2|V| bits on the
// summed storage of any N-f servers.
func SingletonTotalBits(p Params, log2V float64) float64 {
	return float64(p.N) * log2V / float64(p.N-p.F)
}

// --- Theorem 4.1: algorithms without server gossip ---

// theorem41RHS is the right-hand side of the Theorem 4.1 subset constraint —
// for every set of N-f servers, (sum of their storage) + (their max storage)
// is at least log2|V| + log2(|V|-1) - log2(N-f) bits.
func theorem41RHS(p Params, log2V float64) float64 {
	return log2V + Log2Pow2Minus1(log2V) - math.Log2(float64(p.N-p.F))
}

// Theorem41TotalBits returns the Corollary 4.2 TotalStorage bound:
// N·(log2|V| + log2(|V|-1) - log2(N-f)) / (N-f+1) bits.
func Theorem41TotalBits(p Params, log2V float64) float64 {
	return float64(p.N) * theorem41RHS(p, log2V) / float64(p.N-p.F+1)
}

// Theorem41MaxBits returns the Corollary 4.2 MaxStorage bound.
func Theorem41MaxBits(p Params, log2V float64) float64 {
	return theorem41RHS(p, log2V) / float64(p.N-p.F+1)
}

// --- Theorem 5.1: universal bound (gossip allowed) ---

// theorem51RHS is the right-hand side of the Theorem 5.1 subset constraint —
// for every set of N-f servers, (sum of their storage) + 2·(their max
// storage) is at least log2|V| + log2(|V|-1) - 2·log2(N-f) bits.
func theorem51RHS(p Params, log2V float64) float64 {
	return log2V + Log2Pow2Minus1(log2V) - 2*math.Log2(float64(p.N-p.F))
}

// Theorem51TotalBits returns the Corollary 5.2 TotalStorage bound:
// N·(log2|V| + log2(|V|-1) - 2·log2(N-f)) / (N-f+2) bits.
func Theorem51TotalBits(p Params, log2V float64) float64 {
	return float64(p.N) * theorem51RHS(p, log2V) / float64(p.N-p.F+2)
}

// Theorem51MaxBits returns the Corollary 5.2 MaxStorage bound.
func Theorem51MaxBits(p Params, log2V float64) float64 {
	return theorem51RHS(p, log2V) / float64(p.N-p.F+2)
}

// --- Theorem 6.5: single value-dependent write phase ---

// NuStar returns ν* = min(ν, f+1): the effective concurrency beyond which
// the Theorem 6.5 bound saturates.
func NuStar(p Params, nu int) int {
	if nu < p.F+1 {
		return nu
	}
	return p.F + 1
}

// Theorem65SubsetSize returns the size of the server subset the theorem
// constrains: min(N-f+ν-1, N).
func Theorem65SubsetSize(p Params, nu int) int {
	m := p.N - p.F + nu - 1
	if m > p.N {
		return p.N
	}
	return m
}

// Theorem65SubsetBits returns the Theorem 6.5 bound on the summed storage of
// any Theorem65SubsetSize(p, ν) servers:
// log2 C(|V|-1, ν*) - ν*·log2(N-f+ν*-1) - log2(ν*!) bits.
func Theorem65SubsetBits(p Params, nu int, log2V float64) float64 {
	ns := NuStar(p, nu)
	if ns < 1 {
		return 0
	}
	b := Log2BinomPow2(log2V, ns) -
		float64(ns)*math.Log2(float64(p.N-p.F+ns-1)) -
		Log2Factorial(ns)
	if b < 0 {
		return 0
	}
	return b
}

// Theorem65TotalBits returns the Corollary 6.6 TotalStorage bound, derived
// from the subset bound by the same extension argument as Corollary 4.2:
// if the m = min(N-f+ν-1, N) least-loaded servers sum to at least B, each of
// the other N-m servers holds at least B/m, so the total is at least N·B/m.
// As |V| -> inf this approaches ν*·N/(N-f+ν*-1)·log2|V|.
func Theorem65TotalBits(p Params, nu int, log2V float64) float64 {
	m := Theorem65SubsetSize(p, nu)
	if m < 1 {
		return 0
	}
	return float64(p.N) * Theorem65SubsetBits(p, nu, log2V) / float64(m)
}

// --- normalized (|V| -> infinity) forms, as plotted in Figure 1 ---

// NormalizedSingleton returns N/(N-f).
func NormalizedSingleton(p Params) float64 {
	return float64(p.N) / float64(p.N-p.F)
}

// NormalizedTheorem41 returns 2N/(N-f+1).
func NormalizedTheorem41(p Params) float64 {
	return 2 * float64(p.N) / float64(p.N-p.F+1)
}

// NormalizedTheorem51 returns 2N/(N-f+2).
func NormalizedTheorem51(p Params) float64 {
	return 2 * float64(p.N) / float64(p.N-p.F+2)
}

// NormalizedTheorem65 returns ν*·N/(N-f+ν*-1) for ν >= 1, and 0 for ν = 0.
func NormalizedTheorem65(p Params, nu int) float64 {
	ns := NuStar(p, nu)
	if ns < 1 {
		return 0
	}
	return float64(ns) * float64(p.N) / float64(p.N-p.F+ns-1)
}

// NormalizedABD returns the replication upper bound the paper plots for
// ABD-style algorithms: f+1 (a replication algorithm needs f+1 full copies;
// see [3, 13]). Note that textbook ABD on all N servers stores N copies; use
// NormalizedFullReplication for that accounting.
func NormalizedABD(p Params) float64 { return float64(p.F + 1) }

// NormalizedFullReplication returns N: one full copy on every server, the
// storage of the ABD implementation in this repository.
func NormalizedFullReplication(p Params) float64 { return float64(p.N) }

// NormalizedErasureUpper returns the erasure-coded upper bound ν·N/(N-f)
// reached by the algorithms of [2,4,5,12] with ν active writes (ν >= 1).
func NormalizedErasureUpper(p Params, nu int) float64 {
	if nu < 1 {
		return 0
	}
	return float64(nu) * float64(p.N) / float64(p.N-p.F)
}

// ReplicationCrossoverNu returns the smallest ν at which the erasure-coded
// upper bound ν·N/(N-f) meets or exceeds the replication bound f+1 — the
// concurrency beyond which replication is the cheaper strategy (Section
// 2.3's observation).
func ReplicationCrossoverNu(p Params) int {
	// nu >= (f+1)(N-f)/N
	return int(math.Ceil(float64(p.F+1) * float64(p.N-p.F) / float64(p.N)))
}
