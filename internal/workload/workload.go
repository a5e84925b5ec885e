// Package workload drives register clusters through seeded, reproducible
// workloads with a controlled number of concurrently active write
// operations ν — the parameter the paper's storage bounds revolve around —
// while the kernel meters per-server storage.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/register"
)

// DefaultStepBudget is the delivery budget a run or interactive operation
// gets when no explicit budget is configured: Spec.MaxSteps defaults to it,
// and so does the per-operation budget of interactive simulator sessions
// (store.ShardSession, Config.StepBudget).
const DefaultStepBudget = 2000000

// Spec describes a workload.
type Spec struct {
	// Seed makes the run reproducible.
	Seed int64
	// Writes is the total number of write operations to issue.
	Writes int
	// Reads is the total number of read operations to issue.
	Reads int
	// TargetNu caps the number of concurrently active writes; the driver
	// keeps min(TargetNu, len(Writers)) writes in flight while budget
	// remains, producing sustained concurrency at that level.
	TargetNu int
	// ValueBytes is the size of each written value; log2|V| = 8*ValueBytes.
	ValueBytes int
	// Crashes randomly crashes up to this many servers during the run
	// (bounded by the cluster's f).
	Crashes int
	// MaxSteps bounds the total deliveries (default DefaultStepBudget).
	MaxSteps int
	// FaultPlan, when non-nil, is installed on the system before the run:
	// messages may be dropped, delayed, reordered or partitioned and servers
	// crashed/recovered on the plan's schedule (see internal/faults). With a
	// plan installed, losing liveness is a reportable outcome
	// (Result.Quiescent) rather than an error, because scenarios such as
	// crashing f+1 servers exist precisely to demonstrate it.
	FaultPlan *faults.Plan
}

func (s Spec) maxSteps() int {
	if s.MaxSteps > 0 {
		return s.MaxSteps
	}
	return DefaultStepBudget
}

// Validate checks the spec against a cluster.
func (s Spec) Validate(cl *cluster.Cluster) error {
	if s.Writes < 0 || s.Reads < 0 {
		return fmt.Errorf("workload: negative op counts")
	}
	if s.TargetNu < 1 {
		return fmt.Errorf("workload: TargetNu must be >= 1")
	}
	if s.ValueBytes < 8 {
		return fmt.Errorf("workload: ValueBytes must be >= 8 (value uniqueness header)")
	}
	if s.Crashes > cl.F {
		return fmt.Errorf("workload: %d crashes exceed cluster f=%d", s.Crashes, cl.F)
	}
	return nil
}

// Result reports what a run produced.
type Result struct {
	// History is the operation history (all ops completed unless the
	// cluster lost liveness, which Run reports as an error).
	History *ioa.History
	// Storage is the kernel's running-maximum storage report.
	Storage ioa.StorageReport
	// PeakActiveWrites is the measured maximum of concurrently active
	// write operations over the run (the execution's ν).
	PeakActiveWrites int
	// Log2V is 8*ValueBytes, for normalizing storage.
	Log2V float64
	// NormalizedTotal is Storage.MaxTotalBits / Log2V — directly comparable
	// to the Figure 1 series.
	NormalizedTotal float64
	// Quiescent reports that the run lost liveness under its fault plan:
	// some operations are still pending and no message can ever become
	// deliverable again. It is always false for fault-free runs, which
	// surface quiescence as an error instead.
	Quiescent bool
	// Faults aggregates the fault events the kernel applied during the run.
	Faults ioa.FaultStats
	// Latencies holds one wall-clock duration per operation that completed
	// within its timeout, in no particular order. Only the wall-clock
	// backends, live and net, fill it — simulator runs have no meaningful per-op wall time — so it
	// is empty for simulator results and excluded from every fingerprint.
	Latencies []time.Duration
}

// Percentile returns the p-th percentile (0 < p <= 1) of the durations —
// Result.Latencies, typically — nearest-rank on a sorted copy, or 0 for an
// empty slice.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Run drives the cluster through the workload.
func Run(cl *cluster.Cluster, spec Spec) (*Result, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(cl); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	sys := cl.Sys
	if spec.FaultPlan != nil {
		sys.SetFaultPlan(spec.FaultPlan)
	}

	writesLeft := spec.Writes
	readsLeft := spec.Reads
	crashesLeft := spec.Crashes
	nextVal := uint64(0)
	activeWrites := 0
	peak := 0

	idle := func(id ioa.NodeID) bool {
		n, err := sys.Node(id)
		if err != nil {
			return false
		}
		c, ok := n.(ioa.Client)
		return ok && !c.Busy() && !sys.Crashed(id)
	}

	maxNu := spec.TargetNu
	if maxNu > len(cl.Writers) {
		maxNu = len(cl.Writers)
	}

	for step := 0; step < spec.maxSteps(); step++ {
		// Keep writes saturated at the target concurrency.
		if writesLeft > 0 && activeWrites < maxNu {
			started := false
			for _, w := range cl.Writers {
				if !idle(w) {
					continue
				}
				nextVal++
				v := register.MakeValue(spec.ValueBytes, nextVal)
				if _, err := sys.Invoke(w, ioa.Invocation{Kind: ioa.OpWrite, Value: v}); err != nil {
					return nil, fmt.Errorf("workload: %w", err)
				}
				writesLeft--
				activeWrites++
				if activeWrites > peak {
					peak = activeWrites
				}
				started = true
				break
			}
			if started {
				continue
			}
		}
		// Occasionally start a read.
		if readsLeft > 0 && rng.Intn(8) == 0 {
			for _, r := range cl.Readers {
				if idle(r) {
					if _, err := sys.Invoke(r, ioa.Invocation{Kind: ioa.OpRead}); err != nil {
						return nil, fmt.Errorf("workload: %w", err)
					}
					readsLeft--
					break
				}
			}
		}
		// Occasionally crash a server.
		if crashesLeft > 0 && rng.Intn(1000) == 0 {
			idx := rng.Intn(len(cl.Servers))
			if !sys.Crashed(cl.Servers[idx]) {
				sys.Crash(cl.Servers[idx])
				crashesLeft--
			}
		}
		// Deliver a random message.
		delivered, err := sys.DeliverRandom(rng)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		if !delivered {
			// Faults may have made the system only temporarily idle; let
			// logical time jump to the next delay expiry, outage boundary
			// or scheduled recovery before concluding anything.
			if sys.FaultForward() {
				continue
			}
			if writesLeft == 0 && readsLeft == 0 {
				break
			}
			// Nothing is deliverable and nothing ever will be unless a new
			// invocation creates messages. If no client is free to invoke,
			// the run is stuck; fall through to the drain, which reports
			// quiescence.
			canWrite := writesLeft > 0 && activeWrites < maxNu && anyIdle(cl.Writers, idle)
			canRead := readsLeft > 0 && anyIdle(cl.Readers, idle)
			if !canWrite && !canRead {
				break
			}
			continue
		}
		// Track write completions.
		activeWrites = (spec.Writes - writesLeft) - sys.History().CompletedWrites()
	}
	// Let everything settle.
	quiescent := false
	if err := sys.FairRun(spec.maxSteps(), ioa.AllOpsDone); err != nil {
		if errors.Is(err, ioa.ErrQuiescent) && spec.FaultPlan != nil {
			// Under a fault plan, lost liveness is a scenario verdict, not
			// a driver failure: the partial history is still checkable.
			quiescent = true
		} else {
			return nil, fmt.Errorf("workload: drain: %w", err)
		}
	}
	log2V := float64(8 * spec.ValueBytes)
	rep := sys.Storage()
	return &Result{
		History:          sys.History(),
		Storage:          rep,
		PeakActiveWrites: peak,
		Log2V:            log2V,
		NormalizedTotal:  float64(rep.MaxTotalBits) / log2V,
		Quiescent:        quiescent,
		Faults:           sys.FaultStats(),
	}, nil
}

// anyIdle reports whether any of the clients can accept an invocation.
func anyIdle(ids []ioa.NodeID, idle func(ioa.NodeID) bool) bool {
	for _, id := range ids {
		if idle(id) {
			return true
		}
	}
	return false
}

// CheckConsistency verifies the result's history offline against the named
// condition, "atomic" or "regular". The simulator's batch runs check this
// way; the wall-clock backends stream into consistency.OnlineChecker instead
// under Config.OnlineCheck.
func (r *Result) CheckConsistency(condition string) error {
	return consistency.Check(condition, r.History)
}
